package wire_test

import (
	"bytes"
	"testing"

	"github.com/graphpart/graphpart/internal/engine"
	"github.com/graphpart/graphpart/internal/engine/transporttest"
	"github.com/graphpart/graphpart/internal/wire"
)

// newTCP builds a loopback mesh transport and ties its sockets to the test.
func newTCP(t *testing.T, p int) *wire.TCPTransport {
	t.Helper()
	tr, err := wire.NewTCPTransport(p)
	if err != nil {
		t.Fatalf("NewTCPTransport(%d): %v", p, err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestTCPTransportConformance runs the shared transport contract suite —
// the same one MemTransport passes — against the TCP mesh.
func TestTCPTransportConformance(t *testing.T) {
	transporttest.Run(t, func(t *testing.T, p int) engine.Transport {
		return newTCP(t, p)
	})
}

// TestTCPFramedByteAccounting checks the TCP transport's byte accounting is
// exactly the MemTransport payload accounting plus the frame header per
// message: identical message counts, bytes shifted by FrameHeaderSize each.
func TestTCPFramedByteAccounting(t *testing.T) {
	run := func(tr engine.Transport) engine.Totals {
		tr.Send(0, 1, &engine.GatherFlush{MasterLocal: 1, Slots: []int32{0, 2}, Contribs: []float64{1, 2}})
		tr.Send(1, 2, &engine.ApplyBroadcast{MirrorLocal: 3, Value: 0.5, Changed: true})
		tr.Send(2, 0, &engine.Activate{Local: 4})
		tr.Flip()
		for k := 0; k < 3; k++ {
			tr.Drain(k)
		}
		return tr.Totals()
	}
	mem := run(engine.NewMemTransport(3))
	tcp := run(newTCP(t, 3))
	if tcp.Messages() != mem.Messages() {
		t.Fatalf("message counts differ: tcp %d, mem %d", tcp.Messages(), mem.Messages())
	}
	wantBytes := mem.Bytes() + wire.FrameHeaderSize*mem.Messages()
	if tcp.Bytes() != wantBytes {
		t.Fatalf("tcp bytes = %d, want mem payload %d + %d per-message header = %d",
			tcp.Bytes(), mem.Bytes(), wire.FrameHeaderSize, wantBytes)
	}
	for name, pair := range map[string][2]int64{
		"gather":   {tcp.GatherBytes, mem.GatherBytes + wire.FrameHeaderSize*mem.GatherMessages},
		"apply":    {tcp.ApplyBytes, mem.ApplyBytes + wire.FrameHeaderSize*mem.ApplyMessages},
		"activate": {tcp.ActivateBytes, mem.ActivateBytes + wire.FrameHeaderSize*mem.ActivateMessages},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s bytes = %d, want %d", name, pair[0], pair[1])
		}
	}
}

// TestTCPControlBytes checks barrier/hello overhead is visible in
// ControlBytes and excluded from message totals.
func TestTCPControlBytes(t *testing.T) {
	tr := newTCP(t, 3)
	if tr.ControlBytes() == 0 {
		t.Fatal("mesh setup sent hello frames; ControlBytes() = 0")
	}
	before := tr.ControlBytes()
	tr.Flip() // 6 barrier frames on a 3-mesh
	grew := tr.ControlBytes() - before
	if grew != 6*(wire.FrameHeaderSize+4) {
		t.Fatalf("one Flip grew ControlBytes by %d, want %d", grew, 6*(wire.FrameHeaderSize+4))
	}
	if got := tr.Totals().Bytes(); got != 0 {
		t.Fatalf("control framing leaked into message totals: %d bytes", got)
	}
}

// TestTCPCloseIdempotent checks Close can be called repeatedly and that a
// closed transport's accounting remains readable.
func TestTCPCloseIdempotent(t *testing.T) {
	tr := newTCP(t, 2)
	tr.Send(0, 1, &engine.Activate{Local: 1})
	tr.Flip()
	if got := len(tr.Drain(1)); got != 1 {
		t.Fatalf("drained %d messages, want 1", got)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := tr.Totals().Messages(); got != 1 {
		t.Fatalf("totals after Close = %d messages, want 1", got)
	}
}

// TestTCPLocalMachines checks the hosted-machine queries on both mesh modes.
func TestTCPLocalMachines(t *testing.T) {
	tr := newTCP(t, 3)
	if got := tr.LocalMachines(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("LocalMachines() = %v, want [0 1 2]", got)
	}
	lone, addr, err := wire.ListenMesh(4, 2)
	if err != nil {
		t.Fatalf("ListenMesh: %v", err)
	}
	defer lone.Close()
	if addr == "" {
		t.Fatal("ListenMesh returned an empty address")
	}
	if got := lone.LocalMachines(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("LocalMachines() = %v, want [2]", got)
	}
}

// slabMsg is message i of batch on link from->(1-from): every kind, with
// gather flushes of varying width, all fields derived from the arguments.
func slabMsg(batch, from, i int) engine.Message {
	id := int32(batch*1000000 + from*100000 + i)
	switch i % 3 {
	case 0:
		width := (i + batch) % 9
		m := &engine.GatherFlush{MasterLocal: id, Slots: make([]int32, width), Contribs: make([]float64, width)}
		for j := range m.Slots {
			m.Slots[j] = int32(2*j + batch)
			m.Contribs[j] = float64(id) / float64(j+3)
		}
		return m
	case 1:
		return &engine.ApplyBroadcast{MirrorLocal: id, Value: float64(id) / 7, Changed: i%2 == 0, Active: i%4 == 1}
	default:
		return &engine.Activate{Local: id}
	}
}

// TestTCPSlabReuse drives both directions of a 2-mesh through six flips
// whose batch sizes force the receive slabs to grow (and later shrink back
// under a larger high-water mark). After each Flip the peers' next batch is
// sent before the drained batch is checked, so its frames cross the socket
// and decode into the other slab while the checked messages are still in
// use; every drained message must re-encode to exactly what was sent. Under
// -race an overlapping reuse is a reported race, and under the
// graphpart_invariants tag the poisoned slab fails the comparison.
func TestTCPSlabReuse(t *testing.T) {
	tr := newTCP(t, 2)
	sizes := []int{3, 40, 900, 12000, 20, 15000}
	send := func(batch int) {
		for from := 0; from < 2; from++ {
			for i := 0; i < sizes[batch]; i++ {
				tr.Send(from, 1-from, slabMsg(batch, from, i))
			}
		}
	}
	send(0)
	tr.Flip()
	for batch := range sizes {
		got := [2][]engine.Message{tr.Drain(0), tr.Drain(1)}
		if batch+1 < len(sizes) {
			send(batch + 1) // in flight: large batches flush while we check
		}
		for to, msgs := range got {
			if len(msgs) != sizes[batch] {
				t.Fatalf("batch %d inbox %d: drained %d messages, want %d", batch, to, len(msgs), sizes[batch])
			}
			for i, m := range msgs {
				want := wire.AppendMessage(nil, slabMsg(batch, 1-to, i))
				if got := wire.AppendMessage(nil, m); !bytes.Equal(got, want) {
					t.Fatalf("batch %d inbox %d message %d: got %x, want %x", batch, to, i, got, want)
				}
			}
		}
		tr.Flip()
	}
}
