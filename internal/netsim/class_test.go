package netsim

import (
	"strings"
	"testing"

	"cvm/internal/sim"
)

// TestClassesCoverage guards the class enumeration: Classes() must cover
// exactly the defined classes, every class must have a real (non-fallback)
// unique name, and the Stats arrays must have one slot per class. Adding
// a message class without extending the accounting fails here.
func TestClassesCoverage(t *testing.T) {
	cs := Classes()
	if len(cs) != int(numClasses) {
		t.Fatalf("Classes() has %d entries, want %d", len(cs), numClasses)
	}
	var st Stats
	if len(st.Msgs) != len(cs) || len(st.Bytes) != len(cs) {
		t.Fatalf("Stats arrays (%d msgs, %d bytes) out of sync with %d classes",
			len(st.Msgs), len(st.Bytes), len(cs))
	}
	seen := make(map[string]Class)
	for i, c := range cs {
		if c != Class(i) {
			t.Errorf("Classes()[%d] = %v, want contiguous ids", i, c)
		}
		name := c.String()
		if strings.HasPrefix(name, "Class(") {
			t.Errorf("class %d has no real name (String() = %q)", i, name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("classes %v and %v share the name %q", prev, c, name)
		}
		seen[name] = c
	}
	if Class(numClasses).String() != "Class(3)" && int(numClasses) == 3 {
		t.Errorf("out-of-range class fallback broken: %q", Class(numClasses).String())
	}
}

// TestAllClassesAccounted sends one message of every class and checks
// each is tallied in its own slot — not just the classes the protocol
// happens to exercise most.
func TestAllClassesAccounted(t *testing.T) {
	eng, nw, procs := newTestNet(2, 0)
	classes := Classes()
	eng.Spawn(procs[0], "t", func(tk *sim.Task) {
		for i, c := range classes {
			nw.SendFromTask(tk, 0, 1, c, 10*(i+1), func() {})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	var wantBytes int64
	for i, c := range classes {
		if st.Msgs[c] != 1 {
			t.Errorf("class %v: %d msgs, want 1", c, st.Msgs[c])
		}
		if want := int64(10 * (i + 1)); st.Bytes[c] != want {
			t.Errorf("class %v: %d bytes, want %d", c, st.Bytes[c], want)
		}
		wantBytes += int64(10 * (i + 1))
	}
	if st.TotalMsgs() != int64(len(classes)) || st.TotalBytes() != wantBytes {
		t.Errorf("totals = %d msgs/%d bytes, want %d/%d",
			st.TotalMsgs(), st.TotalBytes(), len(classes), wantBytes)
	}
}
