package main

import (
	"sync"
	"time"

	"cvm"
	"cvm/internal/transport"
)

// rtTracer records one traced real-runtime execution. Threads run
// concurrently, so each thread keeps its own recorder and the one-layer-
// at-a-time interval rule of the simulator does not apply: rt.access_s
// and rt.sync_s are per-call wall durations summed over threads, waiting
// included, and apps.self_s sums each thread's return-to-next-call gaps.
type rtTracer struct {
	t0       time.Time
	run      int32
	maxSpans int

	mu      sync.Mutex
	threads []*rtRecorder
	conns   []*tracedConn
}

func newRTTracer(run int32, maxSpans int) *rtTracer {
	return &rtTracer{run: run, maxSpans: maxSpans}
}

func (tr *rtTracer) start(t0 time.Time) { tr.t0 = t0 }

// wrapMain wraps one node's thread body; every node's application
// instance gets its own wrapper from the same tracer.
func (tr *rtTracer) wrapMain(main func(cvm.Worker)) func(cvm.Worker) {
	return func(w cvm.Worker) {
		r := &rtRecorder{t0: tr.t0, log: spanLog{run: tr.run, max: tr.maxSpans}}
		tr.mu.Lock()
		tr.threads = append(tr.threads, r)
		tr.mu.Unlock()
		r.last = r.now()
		r.main = r.log.begin("apps.Main", r.last, -1)
		main(&tracedWorker{w: w, rec: r})
		end := r.now()
		r.appsNs += end - r.last
		r.log.end(r.main, end)
	}
}

// wrapConn is the rt → transport boundary for one node.
func (tr *rtTracer) wrapConn(c transport.Conn) transport.Conn {
	tc := &tracedConn{Conn: c, t0: tr.t0, log: spanLog{run: tr.run, max: tr.maxSpans}}
	tr.mu.Lock()
	tr.conns = append(tr.conns, tc)
	tr.mu.Unlock()
	return tc
}

// rtRecorder is one real-runtime thread's recorder; only that thread
// touches it until the run has ended.
type rtRecorder struct {
	t0    time.Time
	log   spanLog
	main  int32
	last  int64 // host ns of this thread's previous return (or body start)
	start int64
	open  int32

	calls                    [numOps]int64
	appsNs, accessNs, syncNs int64
}

func (r *rtRecorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *rtRecorder) count(o op) { r.calls[o]++ }

func (r *rtRecorder) enter(o op) {
	r.start = r.now()
	r.appsNs += r.start - r.last
	r.open = r.log.begin(rtSpanNames[o], r.start, r.main)
}

func (r *rtRecorder) exit(o op) {
	now := r.now()
	r.log.end(r.open, now)
	r.calls[o]++
	d := now - r.start
	switch {
	case o.isAccess():
		r.accessNs += d
	case o.isSync():
		r.syncNs += d
	}
	r.last = now
}

// tracedConn times Send and Recv of one node's transport endpoint; the
// node's worker threads and its protocol dispatcher call it concurrently.
type tracedConn struct {
	transport.Conn
	t0 time.Time

	mu                   sync.Mutex
	log                  spanLog
	sendCalls, recvCalls int64
	sendNs, recvNs       int64
}

func (c *tracedConn) Send(m transport.Message) error {
	t := time.Now()
	err := c.Conn.Send(m)
	c.record("transport.Send", t, &c.sendCalls, &c.sendNs)
	return err
}

func (c *tracedConn) Recv() (transport.Message, error) {
	t := time.Now()
	m, err := c.Conn.Recv()
	c.record("transport.Recv", t, &c.recvCalls, &c.recvNs)
	return m, err
}

func (c *tracedConn) record(name string, t time.Time, calls, ns *int64) {
	end := time.Now()
	c.mu.Lock()
	c.log.end(c.log.begin(name, int64(t.Sub(c.t0)), -1), int64(end.Sub(c.t0)))
	*calls++
	*ns += int64(end.Sub(t))
	c.mu.Unlock()
}

// metrics reports the traced per-layer figures and the kept spans of
// every thread and endpoint. Call after the run has ended.
func (tr *rtTracer) metrics() (map[string]float64, []span, int64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var calls, accessCalls, syncCalls, appsNs, accessNs, syncNs int64
	var spans []span
	var seen int64
	for _, r := range tr.threads {
		seen += r.log.total
		for o, n := range r.calls {
			calls += n
			if op(o).isAccess() {
				accessCalls += n
			}
			if op(o).isSync() {
				syncCalls += n
			}
		}
		appsNs += r.appsNs
		accessNs += r.accessNs
		syncNs += r.syncNs
		spans = append(spans, r.log.spans...)
	}
	var sendCalls, sendNs, recvCalls, recvNs int64
	for _, c := range tr.conns {
		c.mu.Lock()
		sendCalls += c.sendCalls
		sendNs += c.sendNs
		recvCalls += c.recvCalls
		recvNs += c.recvNs
		spans = append(spans, c.log.spans...)
		seen += c.log.total
		c.mu.Unlock()
	}
	return map[string]float64{
		"apps.worker_calls":     float64(calls),
		"core.access_calls":     float64(accessCalls),
		"core.sync_calls":       float64(syncCalls),
		"apps.self_s":           float64(appsNs) / 1e9,
		"rt.access_s":           float64(accessNs) / 1e9,
		"rt.sync_s":             float64(syncNs) / 1e9,
		"transport.send_calls":  float64(sendCalls),
		"transport.send_s":      float64(sendNs) / 1e9,
		"transport.recv_calls":  float64(recvCalls),
		"transport.recv_wait_s": float64(recvNs) / 1e9,
	}, spans, seen
}
