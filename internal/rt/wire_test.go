package rt

import (
	"strings"
	"testing"
	"time"

	"cvm"
	"cvm/internal/core"
	"cvm/internal/transport"
)

// TestMalformedDiffFailsNode injects diff frames the home cannot apply
// over loopback: node 0 runs one thread parked at a barrier, and the
// test, standing in for node 1, sends node 0 a bad diff flush. RunNode
// must return an error naming the sender and the page instead of the
// dispatcher panicking the process.
func TestMalformedDiffFailsNode(t *testing.T) {
	const pageSize = 4096
	straddle := core.Runs{Spans: []core.Span{{Off: pageSize - 4, Len: 8}}, Data: make([]byte, 8)}
	past := core.Runs{Spans: []core.Span{{Off: 2 * pageSize, Len: 8}}, Data: make([]byte, 8)}
	cases := map[string]struct {
		payload []byte
		want    []string
	}{
		"span across the page end": {encodeDiff(7, 3, straddle), []string{"node 0", "node 1", "page 3", "span [4092, 4100)"}},
		"span past the page":       {encodeDiff(7, 3, past), []string{"node 0", "node 1", "page 3", "span [8192, 8200)"}},
		"truncated runs":           {encodeDiff(7, 3, past)[:10], []string{"node 0", "diff from node 1"}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(2, 1)
			cfg.PageSize = pageSize
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
			if err := conns[1].Send(transport.Message{To: 0, Class: classOf(msgDiffReq),
				Type: msgDiffReq, Payload: tc.payload}); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("RunNode returned nil after a malformed diff")
				}
				for _, w := range tc.want {
					if !strings.Contains(err.Error(), w) {
						t.Errorf("error %q does not name %q", err, w)
					}
				}
			case <-time.After(10 * time.Second):
				t.Fatal("RunNode did not fail after a malformed diff")
			}
		})
	}
}
