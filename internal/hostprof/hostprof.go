// Package hostprof gives a command -cpuprofile and -memprofile flags:
// pprof profiles of the host process itself, the simulator's own cost
// rather than the virtual time it reports. Read them with `go tool
// pprof`.
package hostprof

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profile paths registered on a flag set.
type Flags struct {
	cpu, mem string
}

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile of this process to this file")
	fs.StringVar(&f.mem, "memprofile", "", "write an allocation profile of this process to this file at exit")
	return f
}

// Start begins CPU profiling when -cpuprofile is set. The returned stop
// ends it and writes the allocation profile when -memprofile is set;
// call it once, when the command's work is done.
func (f *Flags) Start() (stop func() error, err error) {
	var cpu *os.File
	if f.cpu != "" {
		if cpu, err = os.Create(f.cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if f.mem != "" {
			errs = append(errs, writeAllocs(f.mem))
		}
		return errors.Join(errs...)
	}, nil
}

// writeAllocs writes the allocation profile (every allocation since the
// process started, sampled) to path.
func writeAllocs(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle the in-use figures
	if err := pprof.Lookup("allocs").WriteTo(out, 0); err != nil {
		out.Close()
		return fmt.Errorf("-memprofile: %w", err)
	}
	return out.Close()
}
