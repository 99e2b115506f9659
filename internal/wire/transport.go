package wire

import (
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/graphpart/graphpart/internal/engine"
)

// batch is one barrier-delimited delivery on one incoming link.
type batch struct {
	seq  uint32
	msgs []engine.Message
}

// TCPTransport is engine.Transport over real TCP sockets: a full mesh of
// length-prefix-framed connections, one per ordered machine pair. It
// preserves the MemTransport delivery contract exactly — concurrent sends
// from distinct senders, per-sender send order (one TCP stream per link),
// Flip-barrier delivery, ascending-sender-id drain grouping — so engine
// runs over it stay bit-identical to RunSequential; only the byte
// accounting changes, from payload bytes to actual framed wire bytes
// (payload + FrameHeaderSize per message).
//
// A transport may host all p machines in one process (NewTCPTransport; the
// engine's machine goroutines then talk through the kernel's loopback) or
// any subset (ListenMesh/ConnectMesh; the process-per-machine cluster hosts
// exactly one machine per process). Send may only be called for locally
// hosted senders and Drain for locally hosted inboxes.
//
// Phase discipline matches MemTransport: Flip is never called concurrently
// with Send or Drain — on a mesh with remote peers, Flip is also the global
// barrier, returning only after every peer's sends for the phase have
// arrived (each sender closes its phase with a barrier frame on every
// link). A broken link mid-run has no error path in the Transport
// interface; it panics with the underlying error.
type TCPTransport struct {
	p        int
	local    []bool
	localIDs []int

	listeners []net.Listener
	// conns/writers[from][to]: outgoing framed links for local senders.
	conns   [][]net.Conn
	writers [][]*meshWriter
	// inConns are the accepted sides, kept for Close.
	inConns []net.Conn

	// in holds the local inboxes: Flip delivers each incoming link's
	// batch into it, and from==to sends (the engine never issues them, but
	// the MemTransport contract supports them) go straight in.
	in *engine.Inboxes

	// mu guards ready, failed and closed; cond wakes Flip when a reader
	// banks a barrier-delimited batch.
	mu     sync.Mutex
	cond   *sync.Cond
	ready  [][][]batch
	failed error
	closed bool
	seq    uint32

	// ledger counts framed message bytes on the local senders' rows.
	ledger *engine.Ledger
	// controlBytes counts barrier/hello framing overhead — transport cost
	// that is not message traffic and stays out of Totals.
	controlBytes atomic.Int64

	readers sync.WaitGroup
}

// meshWriter is one outgoing link's write buffer: Send encodes frames
// straight into buf and flushes once it passes meshWriterFlushAt; Flip
// appends the barrier frame and flushes the rest.
type meshWriter struct {
	conn net.Conn
	buf  []byte
}

const meshWriterFlushAt = 32 << 10

func (w *meshWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.conn.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// newMesh allocates the transport skeleton for p machines hosting localIDs.
func newMesh(p int, localIDs []int) (*TCPTransport, error) {
	if p < 1 {
		return nil, fmt.Errorf("wire: need at least one machine, got p=%d", p)
	}
	t := &TCPTransport{
		p:         p,
		local:     make([]bool, p),
		listeners: make([]net.Listener, p),
		conns:     make([][]net.Conn, p),
		writers:   make([][]*meshWriter, p),
		in:        engine.NewInboxes(p),
		ledger:    engine.NewLedger(p),
		ready:     make([][][]batch, p),
	}
	t.cond = sync.NewCond(&t.mu)
	for _, k := range localIDs {
		if k < 0 || k >= p {
			return nil, fmt.Errorf("wire: local machine id %d out of range [0,%d)", k, p)
		}
		if t.local[k] {
			return nil, fmt.Errorf("wire: duplicate local machine id %d", k)
		}
		t.local[k] = true
	}
	t.localIDs = append([]int(nil), localIDs...)
	sort.Ints(t.localIDs)
	for from := 0; from < p; from++ {
		t.conns[from] = make([]net.Conn, p)
		t.writers[from] = make([]*meshWriter, p)
		t.ready[from] = make([][]batch, p)
	}
	return t, nil
}

// NewTCPTransport builds an in-process TCP mesh for p machines: every
// ordered pair gets a loopback connection, so all inter-machine traffic
// crosses real sockets while the engine's machine goroutines stay in one
// process. Close must be called to release the sockets.
func NewTCPTransport(p int) (*TCPTransport, error) {
	all := make([]int, p)
	for i := range all {
		all[i] = i
	}
	t, err := newMesh(p, all)
	if err != nil {
		return nil, err
	}
	addrs, err := t.listen()
	if err != nil {
		t.Close()
		return nil, err
	}
	if err := t.connect(addrs); err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// ListenMesh builds a transport for p machines hosting only machine
// localID, listening for peer connections on a fresh loopback port. It
// returns the transport and its listen address; the caller distributes all
// p addresses (the cluster coordinator does) and completes the mesh with
// ConnectMesh.
func ListenMesh(p, localID int) (*TCPTransport, string, error) {
	t, err := newMesh(p, []int{localID})
	if err != nil {
		return nil, "", err
	}
	addrs, err := t.listen()
	if err != nil {
		t.Close()
		return nil, "", err
	}
	return t, addrs[localID], nil
}

// ConnectMesh completes a ListenMesh transport: dials every remote peer
// (addrs[j] is machine j's listen address) and accepts every incoming link.
// It returns once the mesh is fully connected.
func (t *TCPTransport) ConnectMesh(addrs []string) error {
	return t.connect(addrs)
}

// listen opens one listener per local machine and returns the p-slot
// address table (empty entries for remote machines).
func (t *TCPTransport) listen() ([]string, error) {
	addrs := make([]string, t.p)
	for _, k := range t.localIDs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("wire: listen for machine %d: %w", k, err)
		}
		t.listeners[k] = ln
		addrs[k] = ln.Addr().String()
	}
	return addrs, nil
}

// accepted is one handshaken incoming link.
type accepted struct {
	from, to int
	conn     net.Conn
	rd       *Reader
	err      error
}

// connect completes the mesh: dials an outgoing link for every (local,
// remote-or-local) ordered pair and accepts the expected incoming links,
// handshaking each with a hello frame carrying the sender id.
func (t *TCPTransport) connect(addrs []string) error {
	if t.p == 1 {
		return nil
	}
	expected := len(t.localIDs) * (t.p - 1)
	ch := make(chan accepted, expected)
	for _, k := range t.localIDs {
		go t.acceptLoop(k, ch)
	}
	// Dial outgoing links. Peers' accept loops run concurrently (above for
	// in-process links, in the peer processes for remote ones), so serial
	// dialing cannot deadlock.
	var hello [FrameHeaderSize + 4]byte
	for _, from := range t.localIDs {
		for to := 0; to < t.p; to++ {
			if to == from {
				continue
			}
			conn, err := net.DialTimeout("tcp", addrs[to], setupTimeout)
			if err != nil {
				return fmt.Errorf("wire: dial machine %d at %s: %w", to, addrs[to], err)
			}
			if tc, ok := conn.(*net.TCPConn); ok {
				// Barrier frames are tiny and latency-critical; never
				// Nagle-delay them.
				_ = tc.SetNoDelay(true)
			}
			h := appendFrameHeader(hello[:0], frameHello, 4)
			h = binary.BigEndian.AppendUint32(h, uint32(from))
			_ = conn.SetWriteDeadline(wallDeadline(setupTimeout))
			if _, err := conn.Write(h); err != nil {
				conn.Close()
				return fmt.Errorf("wire: hello to machine %d: %w", to, err)
			}
			_ = conn.SetWriteDeadline(time.Time{})
			t.controlBytes.Add(int64(len(h)))
			t.conns[from][to] = conn
			t.writers[from][to] = &meshWriter{conn: conn, buf: make([]byte, 0, meshWriterFlushAt)}
		}
	}
	// Collect the handshaken incoming links and start their readers.
	seen := make(map[[2]int]bool, expected)
	for i := 0; i < expected; i++ {
		in := <-ch
		if in.err != nil {
			return in.err
		}
		key := [2]int{in.from, in.to}
		if in.from < 0 || in.from >= t.p || in.from == in.to || seen[key] {
			in.conn.Close()
			return fmt.Errorf("wire: invalid or duplicate hello: link %d->%d", in.from, in.to)
		}
		seen[key] = true
		t.inConns = append(t.inConns, in.conn)
		t.readers.Add(1)
		go t.readLoop(in.from, in.to, in.rd)
	}
	return nil
}

// acceptLoop accepts machine k's p-1 incoming links and handshakes each.
func (t *TCPTransport) acceptLoop(k int, ch chan<- accepted) {
	ln := t.listeners[k]
	for i := 0; i < t.p-1; i++ {
		if tl, ok := ln.(*net.TCPListener); ok {
			_ = tl.SetDeadline(wallDeadline(setupTimeout))
		}
		conn, err := ln.Accept()
		if err != nil {
			ch <- accepted{to: k, err: fmt.Errorf("wire: accept for machine %d: %w", k, err)}
			return
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true)
		}
		_ = conn.SetReadDeadline(wallDeadline(setupTimeout))
		rd := NewReader(conn)
		kind, payload, err := rd.ReadFrame()
		if err != nil || kind != frameHello || len(payload) != 4 {
			conn.Close()
			ch <- accepted{to: k, err: fmt.Errorf("wire: bad hello on machine %d's listener (kind %#02x): %v", k, kind, err)}
			return
		}
		_ = conn.SetReadDeadline(time.Time{})
		ch <- accepted{from: int(int32(binary.BigEndian.Uint32(payload))), to: k, conn: conn, rd: rd}
	}
}

// readLoop consumes one incoming link: data frames decode into the current
// batch's slab; a barrier frame banks the batch under mu for Flip.
//
// Batch s decodes into slabs[s&1]. The slab is reset only when the first
// frame of batch s+2 arrives, and that frame cannot arrive before the
// receiver has consumed batch s: the sender writes phase s+2 only after its
// Flip s+1 returns, which waits for the receiver's barrier s+1, which the
// receiver's Flip s+1 sends only after the phase that drained batch s.
func (t *TCPTransport) readLoop(from, to int, rd *Reader) {
	defer t.readers.Done()
	var slabs [2]slab
	next := uint32(1) // sequence number of the batch being decoded
	fresh := true     // no frame of batch next has arrived yet
	for {
		start := rd.Offset()
		kind, payload, err := rd.ReadFrame()
		if err != nil {
			t.fail(fmt.Errorf("wire: link %d->%d: %w", from, to, err))
			return
		}
		s := &slabs[next&1]
		if fresh {
			s.reset()
			fresh = false
		}
		if kind == frameBarrier {
			if len(payload) != 4 {
				t.fail(frameErrorf(start, "barrier payload %d bytes, want 4 on link %d->%d", len(payload), from, to))
				return
			}
			seq := binary.BigEndian.Uint32(payload)
			t.mu.Lock()
			t.ready[from][to] = append(t.ready[from][to], batch{seq: seq, msgs: s.msgs})
			t.cond.Broadcast()
			t.mu.Unlock()
			next, fresh = seq+1, true
			continue
		}
		if _, err := s.decode(kind, payload, start); err != nil {
			t.fail(fmt.Errorf("wire: link %d->%d: %w", from, to, err))
			return
		}
	}
}

// fail records the first link error and wakes any Flip waiter. Errors after
// Close (readers seeing their sockets closed) are expected and dropped.
func (t *TCPTransport) fail(err error) {
	t.mu.Lock()
	if !t.closed && t.failed == nil {
		t.failed = err
	}
	t.cond.Broadcast()
	t.mu.Unlock()
}

// Send implements engine.Transport. from must be hosted locally.
func (t *TCPTransport) Send(from, to int, m engine.Message) {
	if from < 0 || from >= t.p || !t.local[from] {
		panic(fmt.Sprintf("wire: Send from machine %d, which is not hosted here", from))
	}
	if from == to {
		t.in.Deliver(from, to, m)
		t.ledger.Count(from, to, m.MessageKind(), FramedSize(m))
		return
	}
	w := t.writers[from][to]
	before := len(w.buf)
	w.buf = AppendMessage(w.buf, m)
	t.ledger.Count(from, to, m.MessageKind(), len(w.buf)-before)
	if len(w.buf) >= meshWriterFlushAt {
		if err := w.flush(); err != nil {
			panic(fmt.Sprintf("wire: send on link %d->%d: %v", from, to, err))
		}
	}
}

// Flip implements engine.Transport: every local sender closes the phase
// with a barrier frame on each outgoing link, then Flip blocks until a
// barrier for this phase has arrived on every incoming link — at which
// point the banked batches become drainable. On a multi-process mesh this
// doubles as the data-plane phase barrier.
func (t *TCPTransport) Flip() {
	t.seq++
	for _, from := range t.localIDs {
		for to := 0; to < t.p; to++ {
			if w := t.writers[from][to]; w != nil {
				w.buf = appendFrameHeader(w.buf, frameBarrier, 4)
				w.buf = binary.BigEndian.AppendUint32(w.buf, t.seq)
				if err := w.flush(); err != nil {
					panic(fmt.Sprintf("wire: barrier on link %d->%d: %v", from, to, err))
				}
				t.controlBytes.Add(FrameHeaderSize + 4)
			}
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.failed != nil {
			panic(fmt.Sprintf("wire: mesh failed during Flip %d: %v", t.seq, t.failed))
		}
		if t.closed {
			panic("wire: Flip on a closed transport")
		}
		if t.allBarriered() {
			break
		}
		t.cond.Wait()
	}
	for from := 0; from < t.p; from++ {
		for _, to := range t.localIDs {
			if from == to {
				continue
			}
			q := t.ready[from][to]
			b := q[0]
			if b.seq != t.seq {
				panic(fmt.Sprintf("wire: link %d->%d delivered barrier %d during Flip %d", from, to, b.seq, t.seq))
			}
			// Shift in place (at most two batches are ever queued) so
			// the queue reuses its backing array.
			t.ready[from][to] = q[:copy(q, q[1:])]
			for _, m := range b.msgs {
				t.in.Deliver(from, to, m)
			}
		}
	}
	t.in.Flip()
}

// allBarriered reports whether every incoming link has banked the batch for
// the current Flip sequence. Caller holds mu.
func (t *TCPTransport) allBarriered() bool {
	for from := 0; from < t.p; from++ {
		for _, to := range t.localIDs {
			if from == to {
				continue
			}
			if len(t.ready[from][to]) == 0 {
				return false
			}
		}
	}
	return true
}

// Drain implements engine.Transport. k must be hosted locally.
func (t *TCPTransport) Drain(k int) []engine.Message {
	if k < 0 || k >= t.p || !t.local[k] {
		panic(fmt.Sprintf("wire: Drain of inbox %d, which is not hosted here", k))
	}
	return t.in.Drain(k)
}

// Totals implements engine.Transport. Bytes are framed wire bytes
// (payload + FrameHeaderSize per message); control framing (barriers,
// hellos) is reported separately by ControlBytes.
func (t *TCPTransport) Totals() engine.Totals { return t.ledger.Totals() }

// Traffic implements engine.Transport: a copy of this process's sender-side
// per-link matrix (remote senders' rows are zero; the cluster coordinator
// merges per-worker rows into the full matrix).
func (t *TCPTransport) Traffic() *engine.TrafficMatrix { return t.ledger.Traffic() }

// ControlBytes returns the framing overhead spent on barrier and hello
// frames — wire cost that is real but is not message traffic.
func (t *TCPTransport) ControlBytes() int64 { return t.controlBytes.Load() }

// LocalMachines returns the machine ids hosted by this transport instance,
// ascending.
func (t *TCPTransport) LocalMachines() []int { return append([]int(nil), t.localIDs...) }

// Close tears the mesh down: closes every socket and listener and waits for
// the reader goroutines to exit. Safe to call more than once.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()
	for _, ln := range t.listeners {
		if ln != nil {
			ln.Close()
		}
	}
	for from := range t.conns {
		for _, c := range t.conns[from] {
			if c != nil {
				c.Close()
			}
		}
	}
	for _, c := range t.inConns {
		c.Close()
	}
	t.readers.Wait()
	return nil
}
