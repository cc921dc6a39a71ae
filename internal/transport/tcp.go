package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// The TCP backend connects one OS process per node into a full mesh of
// length-prefixed streams. Frame layout, after a 4-byte big-endian
// length covering the rest:
//
//	from   uint32
//	class  uint8
//	type   uint8
//	payload (length-6 bytes)
//
// Mesh formation is deterministic: every node listens; node i dials
// every peer j < i and accepts from every peer j > i, so each unordered
// pair uses exactly one stream. The dialer identifies itself with a
// hello frame (class=helloClass, from=i) before any traffic. Dials
// retry with backoff until the deadline, covering peers whose listeners
// come up later.
//
// TCP gives per-stream FIFO and reliable delivery, which is strictly
// stronger than the protocol needs (it tolerates reordering across
// streams). Like the loopback backend, outbound traffic queues without
// bound per peer so Send never blocks — symmetric barrier flushes would
// otherwise deadlock head-to-head.

// helloClass marks the mesh-formation hello frame; it is outside the
// protocol Class space on purpose.
const helloClass = 0xff

// tcpHeader is the fixed frame header size after the length prefix.
const tcpHeader = 6

// maxFrame bounds a frame's length field: a defense against a corrupt
// or hostile peer making us allocate gigabytes. The DSM's largest
// messages are a page plus protocol metadata, far below this.
const maxFrame = 64 << 20

// TCPListener is a bound but not yet meshed TCP endpoint. Binding first
// and meshing later lets a control plane collect every node's actual
// address (port 0 resolves at bind time) before any dial starts.
type TCPListener struct {
	self NodeID
	ln   *net.TCPListener
}

// ListenTCP binds node self's data listener on addr (host:port;
// port 0 picks a free port).
func ListenTCP(self NodeID, addr string) (*TCPListener, error) {
	ta, err := net.ResolveTCPAddr("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp node %d: listen %s: %w", self, addr, err)
	}
	ln, err := net.ListenTCP("tcp", ta)
	if err != nil {
		return nil, fmt.Errorf("tcp node %d: listen %s: %w", self, addr, err)
	}
	return &TCPListener{self: self, ln: ln}, nil
}

// Addr reports the bound address (with the resolved port).
func (l *TCPListener) Addr() string { return l.ln.Addr().String() }

// Close releases the listener without forming a mesh (error paths).
func (l *TCPListener) Close() error { return l.ln.Close() }

// Mesh completes the full mesh. addrs[i] is node i's data address;
// len(addrs) is the cluster size and addrs[l.self] must be this
// listener. Mesh blocks until every stream is up or the deadline
// passes. On success the listener is consumed by the returned Conn.
func (l *TCPListener) Mesh(addrs []string, timeout time.Duration) (Conn, error) {
	nodes := len(addrs)
	self := int(l.self)
	if self >= nodes {
		return nil, fmt.Errorf("tcp node %d: only %d addresses", l.self, nodes)
	}
	c := &tcpConn{
		self:  l.self,
		addrs: append([]string(nil), addrs...),
		ln:    l.ln,
		conns: make([]*net.TCPConn, nodes),
		outbx: make([]*outQueue, nodes),
	}
	c.stats.Peers = make([]PeerStats, nodes)
	c.cond = sync.NewCond(&c.mu)
	c.peerEOF = make([]bool, nodes)
	c.open = nodes - 1
	deadline := time.Now().Add(timeout)

	// Accept from higher-id peers and dial lower-id peers concurrently:
	// with every node doing both, ordering either phase first can
	// deadlock (node 0 only accepts, node N-1 only dials).
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := c.acceptPeers(nodes-1-self, deadline); err != nil {
			errs <- err
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < self; j++ {
			conn, err := dialPeer(l.self, NodeID(j), addrs[j], deadline)
			if err != nil {
				errs <- err
				return
			}
			c.mu.Lock()
			c.conns[j] = conn
			c.mu.Unlock()
		}
	}()
	wg.Wait()
	select {
	case err := <-errs:
		c.teardown()
		return nil, err
	default:
	}
	for j := range c.conns {
		if j == self {
			continue
		}
		q := newOutQueue()
		c.outbx[j] = q
		c.wwg.Add(1)
		c.rwg.Add(1)
		go c.writeLoop(NodeID(j), c.conns[j], q)
		go c.readLoop(NodeID(j), c.conns[j])
	}
	return c, nil
}

// acceptPeers accepts want hello-identified streams from higher-id peers.
func (c *tcpConn) acceptPeers(want int, deadline time.Time) error {
	for k := 0; k < want; k++ {
		c.ln.SetDeadline(deadline)
		conn, err := c.ln.AcceptTCP()
		if err != nil {
			return fmt.Errorf("tcp node %d: accept (%d/%d peers): %w", c.self, k, want, err)
		}
		conn.SetReadDeadline(deadline)
		from, class, _, _, err := readFrame(conn)
		if err != nil || class != helloClass {
			conn.Close()
			return fmt.Errorf("tcp node %d: bad hello from %s: class=%d err=%v",
				c.self, conn.RemoteAddr(), class, err)
		}
		conn.SetReadDeadline(time.Time{})
		if int(from) <= int(c.self) || int(from) >= len(c.addrs) {
			conn.Close()
			return fmt.Errorf("tcp node %d: hello claims invalid peer %d", c.self, from)
		}
		conn.SetNoDelay(true)
		c.mu.Lock()
		dup := c.conns[from] != nil
		if !dup {
			c.conns[from] = conn
		}
		c.mu.Unlock()
		if dup {
			conn.Close()
			return fmt.Errorf("tcp node %d: duplicate hello from node %d", c.self, from)
		}
	}
	return nil
}

// dialPeer connects to peer j, retrying with backoff until the deadline
// (the peer's listener may not be bound yet), and sends the hello frame.
func dialPeer(self, peer NodeID, addr string, deadline time.Time) (*net.TCPConn, error) {
	backoff := 10 * time.Millisecond
	for {
		d := net.Dialer{Deadline: deadline}
		conn, err := d.Dial("tcp", addr)
		if err == nil {
			tc := conn.(*net.TCPConn)
			tc.SetNoDelay(true)
			hello := frame(self, helloClass, 0, nil)
			tc.SetWriteDeadline(deadline)
			if _, err := tc.Write(hello); err != nil {
				tc.Close()
				return nil, fmt.Errorf("tcp node %d -> node %d (%s): hello: %w", self, peer, addr, err)
			}
			tc.SetWriteDeadline(time.Time{})
			return tc, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("tcp node %d -> node %d (%s): dial: %w", self, peer, addr, err)
		}
		time.Sleep(backoff)
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
}

// tcpConn is one node's meshed endpoint.
type tcpConn struct {
	self  NodeID
	addrs []string
	ln    *net.TCPListener
	conns []*net.TCPConn
	outbx []*outQueue

	mu      sync.Mutex
	cond    *sync.Cond
	inbox   []Message
	closed  bool
	rerr    error  // first reader failure or last peer's EOF, reported by Recv after drain
	peerEOF []bool // per peer: its stream ended with a clean EOF
	open    int    // peers whose streams have not ended

	statsMu sync.Mutex
	stats   Stats

	wwg       sync.WaitGroup // write loops
	rwg       sync.WaitGroup // read loops
	closeOnce sync.Once
}

func (c *tcpConn) Self() NodeID    { return c.self }
func (c *tcpConn) Nodes() int      { return len(c.addrs) }
func (c *tcpConn) Backend() string { return "tcp" }

func (c *tcpConn) PeerAddr(to NodeID) string {
	if to < 0 || int(to) >= len(c.addrs) {
		return fmt.Sprintf("invalid node %d", to)
	}
	return c.addrs[to]
}

func (c *tcpConn) Send(m Message) error {
	if m.To < 0 || int(m.To) >= len(c.addrs) || m.To == c.self {
		return fmt.Errorf("tcp node %d: send to invalid peer %d", c.self, m.To)
	}
	c.mu.Lock()
	halfClosed := c.peerEOF[m.To]
	c.mu.Unlock()
	if halfClosed {
		return fmt.Errorf("tcp node %d -> node %d (%s): peer closed its stream %s: %w",
			c.self, m.To, c.PeerAddr(m.To), c.peerTraffic(m.To), ErrClosed)
	}
	q := c.outbx[m.To]
	if !q.push(frame(c.self, uint8(m.Class), m.Type, m.Payload)) {
		return fmt.Errorf("tcp node %d -> node %d (%s): %w", c.self, m.To, c.PeerAddr(m.To), ErrClosed)
	}
	c.statsMu.Lock()
	c.stats.Msgs[m.Class]++
	c.stats.Bytes[m.Class] += int64(len(m.Payload))
	c.stats.Peers[m.To].Msgs[m.Class]++
	c.stats.Peers[m.To].Bytes[m.Class] += int64(len(m.Payload))
	c.statsMu.Unlock()
	return nil
}

func (c *tcpConn) Recv() (Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.inbox) == 0 && !c.closed && c.rerr == nil {
		c.cond.Wait()
	}
	if len(c.inbox) == 0 {
		err := c.rerr
		if err == nil {
			err = fmt.Errorf("tcp node %d: recv: %w", c.self, ErrClosed)
		}
		return Message{}, err
	}
	m := c.inbox[0]
	n := copy(c.inbox, c.inbox[1:])
	c.inbox[n] = Message{}
	c.inbox = c.inbox[:n]
	return m, nil
}

func (c *tcpConn) Stats() Stats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	out := c.stats
	out.Peers = append([]PeerStats(nil), c.stats.Peers...)
	return out
}

// peerTraffic summarizes the sent-side traffic toward peer j for error
// attribution ("after 42 msgs / 13807 bytes sent to peer").
func (c *tcpConn) peerTraffic(j NodeID) string {
	c.statsMu.Lock()
	p := c.stats.Peers[j]
	c.statsMu.Unlock()
	return fmt.Sprintf("after %d msgs / %d bytes sent to peer", p.TotalMsgs(), p.TotalBytes())
}

// Close tears the mesh down gracefully: it stops accepting new sends,
// lets the write loops drain everything already queued (so final
// protocol messages reach peers ahead of the FIN), then closes the
// streams and the listener and unblocks Recv.
func (c *tcpConn) Close() error {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		c.cond.Broadcast()
		for _, q := range c.outbx {
			if q != nil {
				q.close()
			}
		}
		c.wwg.Wait()
		c.teardown()
		c.rwg.Wait()
	})
	return nil
}

func (c *tcpConn) teardown() {
	c.ln.Close()
	c.mu.Lock()
	conns := append([]*net.TCPConn(nil), c.conns...)
	c.mu.Unlock()
	for _, conn := range conns {
		if conn != nil {
			conn.Close()
		}
	}
}

// fail records a pump failure: the first error wins and Recv reports it
// once the inbox drains. A failure after Close is the teardown itself.
func (c *tcpConn) fail(err error) {
	c.mu.Lock()
	if !c.closed && c.rerr == nil {
		c.rerr = err
		c.closed = true
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// peerClosed records a clean EOF from peer j: only that peer is
// half-closed, and frames from every other peer keep flowing. A later
// Send to j fails, and once no peer is left open Recv reports err, which
// names the last peer to close.
func (c *tcpConn) peerClosed(j NodeID, err error) {
	c.mu.Lock()
	c.peerEOF[j] = true
	c.open--
	if c.open == 0 && !c.closed && c.rerr == nil {
		c.rerr = err
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// writeLoop drains peer j's outbound queue onto its stream.
func (c *tcpConn) writeLoop(j NodeID, conn *net.TCPConn, q *outQueue) {
	defer c.wwg.Done()
	for {
		buf, ok := q.pop()
		if !ok {
			return
		}
		if _, err := conn.Write(buf); err != nil {
			c.fail(fmt.Errorf("tcp node %d -> node %d (%s): write %s: %w",
				c.self, j, c.PeerAddr(j), c.peerTraffic(j), err))
			return
		}
	}
}

// readLoop pumps frames from peer j's stream into the shared inbox.
func (c *tcpConn) readLoop(j NodeID, conn *net.TCPConn) {
	defer c.rwg.Done()
	for {
		from, class, typ, payload, err := readFrame(conn)
		if err == io.EOF {
			c.peerClosed(j, fmt.Errorf("tcp node %d <- node %d (%s): peer closed %s: %w",
				c.self, j, c.PeerAddr(j), c.peerTraffic(j), ErrClosed))
			return
		}
		if err != nil {
			c.fail(fmt.Errorf("tcp node %d <- node %d (%s): read %s: %w",
				c.self, j, c.PeerAddr(j), c.peerTraffic(j), err))
			return
		}
		if from != j || class >= uint8(NumClasses) {
			c.fail(fmt.Errorf("tcp node %d <- node %d (%s): bad frame from=%d class=%d",
				c.self, j, c.PeerAddr(j), from, class))
			return
		}
		m := Message{From: from, To: c.self, Class: Class(class), Type: typ, Payload: payload}
		c.mu.Lock()
		closed := c.closed
		if !closed {
			c.inbox = append(c.inbox, m)
		}
		c.mu.Unlock()
		if closed {
			return
		}
		c.cond.Signal()
	}
}

// frame serializes one message: length prefix + header + payload.
func frame(from NodeID, class, typ uint8, payload []byte) []byte {
	buf := make([]byte, 4+tcpHeader+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(tcpHeader+len(payload)))
	binary.BigEndian.PutUint32(buf[4:], uint32(from))
	buf[8] = class
	buf[9] = typ
	copy(buf[10:], payload)
	return buf
}

// readFrame reads one length-prefixed frame. The payload allocates — it
// outlives the call inside a Message.
func readFrame(r io.Reader) (from NodeID, class, typ uint8, payload []byte, err error) {
	var hdr [4 + tcpHeader]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, 0, nil, err
	}
	length := binary.BigEndian.Uint32(hdr[:4])
	if length < tcpHeader || length > maxFrame {
		return 0, 0, 0, nil, fmt.Errorf("frame length %d out of range", length)
	}
	from = NodeID(binary.BigEndian.Uint32(hdr[4:8]))
	class, typ = hdr[8], hdr[9]
	if n := int(length) - tcpHeader; n > 0 {
		payload = make([]byte, n)
		if _, err = io.ReadFull(r, payload); err != nil {
			return 0, 0, 0, nil, err
		}
	}
	return from, class, typ, payload, nil
}

// outQueue is an unbounded MPSC byte-buffer queue with close semantics.
type outQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	bufs   [][]byte
	closed bool
}

func newOutQueue() *outQueue {
	q := &outQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues buf; it reports false once the queue is closed.
func (q *outQueue) push(buf []byte) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.bufs = append(q.bufs, buf)
	q.mu.Unlock()
	q.cond.Signal()
	return true
}

// pop dequeues the next buffer, blocking until one arrives; ok is false
// once the queue is closed and drained.
func (q *outQueue) pop() ([]byte, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.bufs) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.bufs) == 0 {
		return nil, false
	}
	buf := q.bufs[0]
	n := copy(q.bufs, q.bufs[1:])
	q.bufs[n] = nil
	q.bufs = q.bufs[:n]
	return buf, true
}

func (q *outQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
