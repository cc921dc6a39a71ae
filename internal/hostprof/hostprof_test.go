package hostprof

import (
	"bytes"
	"compress/gzip"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// checkProfile fails t unless path holds a non-empty gzip-compressed
// pprof profile, which is what runtime/pprof writes.
func checkProfile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%s: not gzip: %v", path, err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(body) == 0 {
		t.Fatalf("%s: empty profile", path)
	}
}

func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	var sink [][]byte
	for i := 0; i < 1000; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	checkProfile(t, cpu)
	checkProfile(t, mem)
}

func TestNoFlagsNoFiles(t *testing.T) {
	f := Register(flag.NewFlagSet("test", flag.ContinueOnError))
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestUnwritableProfileFails(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	bad := filepath.Join(t.TempDir(), "missing", "cpu.pprof")
	if err := fs.Parse([]string{"-cpuprofile", bad}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Start(); err == nil {
		t.Error("Start succeeded writing into a missing directory")
	}
}
