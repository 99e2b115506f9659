package engine

// Transport moves typed messages between machines. It is the only channel
// through which state crosses a partition boundary, and it owns the traffic
// accounting: message counts and wire bytes, cumulatively and per link.
//
// The runtime drives a transport in BSP phases: machines Send during a
// phase, the runtime calls Flip at the phase barrier, and receivers Drain
// the delivered batch in a later phase. Implementations must support
// concurrent Send calls from distinct senders (a machine only ever sends as
// itself), must preserve per-sender send order, and must present each
// drained inbox grouped by ascending sender id — the delivery-order
// contract the runtime's determinism rests on. This interface is the seam
// where a network transport, latency/loss injection and backpressure land;
// MemTransport is the in-process implementation.
type Transport interface {
	// Send enqueues m from machine from to machine to. The message becomes
	// drainable only after the next Flip.
	Send(from, to int, m Message)
	// Flip completes a phase: everything sent since the previous Flip is
	// delivered. The runtime calls it between phase barriers, never
	// concurrently with Send or Drain.
	Flip()
	// Drain removes and returns machine k's delivered inbox, grouped by
	// ascending sender id with per-sender order preserved. Only machine k
	// may drain inbox k. The returned slice is valid until the next
	// Drain(k) — implementations reuse the backing buffer, so callers
	// consume the batch before draining again (the runtime's phases do).
	Drain(k int) []Message
	// Totals returns the cumulative per-kind traffic counters.
	Totals() Totals
	// Traffic returns a copy of the cumulative per-link traffic matrix.
	Traffic() *TrafficMatrix
}

// Totals is cumulative transport traffic broken down by message kind.
type Totals struct {
	// GatherMessages counts mirror->master accumulator flushes,
	// ApplyMessages master->mirror value broadcasts and ActivateMessages
	// activation notices and fan-outs.
	GatherMessages, ApplyMessages, ActivateMessages int64
	// GatherBytes, ApplyBytes and ActivateBytes are the bytes the
	// transport's Ledger charged the corresponding kinds.
	GatherBytes, ApplyBytes, ActivateBytes int64
}

// Messages returns the total message count across kinds.
func (t Totals) Messages() int64 {
	return t.GatherMessages + t.ApplyMessages + t.ActivateMessages
}

// Bytes returns the total wire bytes across kinds.
func (t Totals) Bytes() int64 { return t.GatherBytes + t.ApplyBytes + t.ActivateBytes }

// Sub returns t - o field by field; the runtime uses it to attribute
// cumulative counters to individual supersteps.
func (t Totals) Sub(o Totals) Totals { return t.plus(o, -1) }

// Add returns t + o field by field; the cluster coordinator sums
// per-worker totals with it.
func (t Totals) Add(o Totals) Totals { return t.plus(o, 1) }

func (t Totals) plus(o Totals, sign int64) Totals {
	return Totals{
		GatherMessages:   t.GatherMessages + sign*o.GatherMessages,
		ApplyMessages:    t.ApplyMessages + sign*o.ApplyMessages,
		ActivateMessages: t.ActivateMessages + sign*o.ActivateMessages,
		GatherBytes:      t.GatherBytes + sign*o.GatherBytes,
		ApplyBytes:       t.ApplyBytes + sign*o.ApplyBytes,
		ActivateBytes:    t.ActivateBytes + sign*o.ActivateBytes,
	}
}

// TrafficMatrix is the per-link traffic of a run: Messages[i][j] counts the
// messages machine i sent to machine j, Bytes[i][j] the wire bytes. The
// diagonal stays zero — machine-local state never touches the transport.
type TrafficMatrix struct {
	Messages [][]int64
	Bytes    [][]int64
}

// NewTrafficMatrix returns a zero p x p matrix.
func NewTrafficMatrix(p int) *TrafficMatrix {
	m := &TrafficMatrix{Messages: make([][]int64, p), Bytes: make([][]int64, p)}
	for i := range m.Messages {
		m.Messages[i], m.Bytes[i] = make([]int64, p), make([]int64, p)
	}
	return m
}

// P returns the machine count of the matrix.
func (m *TrafficMatrix) P() int { return len(m.Messages) }

// TotalMessages sums the message count over every link.
func (m *TrafficMatrix) TotalMessages() int64 { return sumRows(m.Messages) }

// TotalBytes sums the wire bytes over every link.
func (m *TrafficMatrix) TotalBytes() int64 { return sumRows(m.Bytes) }

func sumRows(rows [][]int64) int64 {
	var total int64
	for _, row := range rows {
		for _, c := range row {
			total += c
		}
	}
	return total
}

// Ledger is a transport's traffic accounting: per-link message and byte
// counters and per-sender per-kind counters. Row from has one writer, the
// sending machine, so distinct senders may Count concurrently without
// locks; Totals and Traffic read between phases, after the barrier.
type Ledger struct {
	links               TrafficMatrix
	kindMsgs, kindBytes [][numKinds]int64
}

// NewLedger returns zeroed counters for p machines.
func NewLedger(p int) *Ledger {
	return &Ledger{links: *NewTrafficMatrix(p), kindMsgs: make([][numKinds]int64, p), kindBytes: make([][numKinds]int64, p)}
}

// Count books one message of kind k and size bytes on link from->to. The
// size is the transport's decision: payload bytes in memory, framed bytes
// on a socket.
//
//graphpart:hotpath test=TestHotPathAllocs_Superstep
func (l *Ledger) Count(from, to int, k Kind, size int) {
	l.links.Messages[from][to]++
	l.links.Bytes[from][to] += int64(size)
	l.kindMsgs[from][k]++
	l.kindBytes[from][k] += int64(size)
}

// Totals returns the cumulative per-kind counters summed over senders.
func (l *Ledger) Totals() Totals {
	var m, b [numKinds]int64
	for from := range l.kindMsgs {
		for k := range m {
			m[k] += l.kindMsgs[from][k]
			b[k] += l.kindBytes[from][k]
		}
	}
	return Totals{
		GatherMessages: m[KindGatherFlush], ApplyMessages: m[KindApplyBroadcast], ActivateMessages: m[KindActivate],
		GatherBytes: b[KindGatherFlush], ApplyBytes: b[KindApplyBroadcast], ActivateBytes: b[KindActivate],
	}
}

// Traffic returns a copy of the per-link matrix.
func (l *Ledger) Traffic() *TrafficMatrix {
	out := NewTrafficMatrix(l.links.P())
	for i := range out.Messages {
		copy(out.Messages[i], l.links.Messages[i])
		copy(out.Bytes[i], l.links.Bytes[i])
	}
	return out
}

// Inboxes holds a transport's in-process message queues, double-buffered
// per link: Deliver queues messages for the next Flip, Flip makes them
// drainable, and Drain(k) collects inbox k grouped by ascending sender id.
// Queue [from][to] has one writer during a phase (sender from) and the
// delivered side one reader (receiver to), so a phase may deliver and
// drain concurrently without locks.
type Inboxes struct {
	queued, delivered [][][]Message
	// drain[k] is inbox k's reusable drain buffer; each Drain(k) refills it
	// in place, honouring Transport's valid-until-next-Drain contract.
	drain [][]Message
}

// NewInboxes returns empty queues for p machines.
func NewInboxes(p int) *Inboxes {
	b := &Inboxes{
		queued:    make([][][]Message, p),
		delivered: make([][][]Message, p),
		drain:     make([][]Message, p),
	}
	for i := 0; i < p; i++ {
		b.queued[i] = make([][]Message, p)
		b.delivered[i] = make([][]Message, p)
	}
	return b
}

// Deliver queues m on link from->to; it becomes drainable at the next
// Flip, after everything queued on the link before it.
func (b *Inboxes) Deliver(from, to int, m Message) {
	b.queued[from][to] = append(b.queued[from][to], m)
}

// Flip makes everything queued since the previous Flip drainable. Callers
// never overlap it with Deliver or Drain.
func (b *Inboxes) Flip() {
	b.queued, b.delivered = b.delivered, b.queued
}

// Drain removes and returns inbox k's delivered messages, grouped by
// ascending sender id with per-link order preserved. Once the first phases
// grow inbox k's buffer to its high-water mark, drains allocate nothing.
//
//graphpart:hotpath test=TestHotPathAllocs_Superstep
func (b *Inboxes) Drain(k int) []Message {
	out := b.drain[k][:0]
	for from := range b.delivered {
		q := b.delivered[from][k]
		if len(q) == 0 {
			continue
		}
		out = append(out, q...)
		b.delivered[from][k] = q[:0]
	}
	b.drain[k] = out
	return out
}

// MemTransport is the in-process Transport: Inboxes with no copying on
// Send, and a Ledger charging each message its payload WireSize. Memory
// visibility across machines comes from the runtime's barrier (a channel
// handshake), not from the transport itself.
type MemTransport struct {
	in     *Inboxes
	ledger *Ledger
}

// NewMemTransport returns an in-process transport for p machines.
func NewMemTransport(p int) *MemTransport {
	return &MemTransport{in: NewInboxes(p), ledger: NewLedger(p)}
}

// Send implements Transport.
func (t *MemTransport) Send(from, to int, m Message) {
	t.in.Deliver(from, to, m)
	t.ledger.Count(from, to, m.MessageKind(), m.WireSize())
}

// Flip implements Transport.
func (t *MemTransport) Flip() { t.in.Flip() }

// Drain implements Transport.
func (t *MemTransport) Drain(k int) []Message { return t.in.Drain(k) }

// Totals implements Transport.
func (t *MemTransport) Totals() Totals { return t.ledger.Totals() }

// Traffic implements Transport.
func (t *MemTransport) Traffic() *TrafficMatrix { return t.ledger.Traffic() }
