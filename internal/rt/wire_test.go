package rt

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cvm"
	"cvm/internal/core"
	"cvm/internal/transport"
)

const injectPageSize = 4096

// injectFrame runs node 0 of a 2-node cluster over loopback with one
// thread parked at a barrier, sends it one frame as node 1, and returns
// the error RunNode fails with.
func injectFrame(t *testing.T, typ uint8, payload []byte) error {
	t.Helper()
	cfg := DefaultConfig(2, 1)
	cfg.PageSize = injectPageSize
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conns := transport.NewLoopback(2)
	defer conns[0].Close()
	defer conns[1].Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.RunNode(conns[0], func(w cvm.Worker) { w.Barrier(0) })
		done <- err
	}()
	if err := conns[1].Send(transport.Message{To: 0, Class: classOf(typ), Type: typ, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("RunNode returned nil after a malformed type %d frame", typ)
		}
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("RunNode did not fail after a malformed type %d frame", typ)
		return nil
	}
}

func wantNamed(t *testing.T, err error, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("error %q does not name %q", err, w)
		}
	}
}

// TestMalformedDiffFailsNode injects diff frames the home cannot apply.
// RunNode must return an error naming the sender and the page instead of
// the dispatcher panicking the process.
func TestMalformedDiffFailsNode(t *testing.T) {
	straddle := core.Runs{Spans: []core.Span{{Off: injectPageSize - 4, Len: 8}}, Data: make([]byte, 8)}
	past := core.Runs{Spans: []core.Span{{Off: 2 * injectPageSize, Len: 8}}, Data: make([]byte, 8)}
	cases := map[string]struct {
		payload []byte
		want    []string
	}{
		"span across the page end": {encodeDiff(nil, 7, 3, straddle), []string{"node 0", "node 1", "page 3", "span [4092, 4100)"}},
		"span past the page":       {encodeDiff(nil, 7, 3, past), []string{"node 0", "node 1", "page 3", "span [8192, 8200)"}},
		"truncated runs":           {encodeDiff(nil, 7, 3, past)[:10], []string{"node 0", "diff from node 1"}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			wantNamed(t, injectFrame(t, msgDiffReq, tc.payload), tc.want...)
		})
	}
}

// TestShortFrameFailsNode injects a frame one byte shorter than its type
// allows, for every message type, plus page replies one byte short of
// and one byte past a page, and a frame of an unknown type. RunNode must return an error naming the
// node, the sender and the type instead of the dispatcher panicking the
// process on an out-of-range index.
func TestShortFrameFailsNode(t *testing.T) {
	for typ := uint8(1); int(typ) < len(minPayload); typ++ {
		name := fmt.Sprintf("type %d", typ)
		t.Run(name, func(t *testing.T) {
			wantNamed(t, injectFrame(t, typ, make([]byte, minPayload[typ]-1)), "node 0", "node 1", name)
		})
	}
	wantNamed(t, injectFrame(t, 99, nil), "node 0", "node 1", "type 99")
	for _, n := range []int{8 + injectPageSize - 1, 8 + injectPageSize + 1} {
		wantNamed(t, injectFrame(t, msgPageRep, make([]byte, n)),
			"node 0", "node 1", fmt.Sprintf("type %d", msgPageRep), fmt.Sprintf("%d-byte", n))
	}
}
