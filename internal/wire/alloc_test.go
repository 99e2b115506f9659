package wire

import (
	"testing"

	"github.com/graphpart/graphpart/internal/engine"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
)

// TestHotPathAllocs_AppendMessage is the cross-check named by the
// //graphpart:hotpath annotation on AppendMessage: framing all three
// message kinds into a presized buffer allocates nothing — the encoder
// only ever appends into the caller's slice.
func TestHotPathAllocs_AppendMessage(t *testing.T) {
	gf := &engine.GatherFlush{
		MasterLocal: 3,
		Slots:       []int32{0, 2, 5},
		Contribs:    []float64{0.5, 1.5, 2.5},
	}
	ab := &engine.ApplyBroadcast{MirrorLocal: 7, Value: 0.25, Changed: true, Active: true}
	ac := &engine.Activate{Local: 9}
	buf := make([]byte, 0, 4096)
	if allocs := testing.AllocsPerRun(1000, func() {
		buf = AppendMessage(buf[:0], gf)
		buf = AppendMessage(buf, ab)
		buf = AppendMessage(buf, ac)
	}); allocs != 0 {
		t.Fatalf("AppendMessage into a presized buffer allocates %.1f times per batch", allocs)
	}
}

// TestHotPathAllocs_TCPSuperstep is the cross-check named by the
// //graphpart:hotpath annotation on slab.decode: once the slabs, link write
// buffers and drain buffers reach their high-water mark, PageRank supersteps
// over an in-process TCP mesh — every machine's five phases, each closed by
// a Flip whose reader goroutines decode thousands of messages — allocate
// nothing. Sends encode into the link buffers and receives decode into the
// per-link slabs; neither side allocates per message. Each measured run
// repeats the same 20 supersteps from Reset, so the warm-up run has already
// seen every batch the measured runs decode.
func TestHotPathAllocs_TCPSuperstep(t *testing.T) {
	r := rng.New(11)
	const n = 600
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		_ = b.AddEdge(graph.Vertex(i), graph.Vertex(r.Intn(i)))
	}
	for i := 0; i < 3*n; i++ {
		_ = b.AddEdge(graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n)))
	}
	g := b.Build()
	const p = 3
	a := partition.MustNew(g.NumEdges(), p)
	for id := 0; id < g.NumEdges(); id++ {
		a.Assign(graph.EdgeID(id), id%p)
	}
	en, err := engine.New(g, a)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTCPTransport(p)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	prog := engine.NewPageRank(n, 0.85, 0)
	hosts := make([]*engine.MachineHost, p)
	for k := range hosts {
		if hosts[k], err = en.Host(k); err != nil {
			t.Fatal(err)
		}
	}
	const supersteps = 20
	reset := func() {
		for _, h := range hosts {
			if _, err := h.Reset(prog, tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	run := func() {
		reset()
		for s := 0; s < supersteps; s++ {
			for ph := 0; ph < engine.NumPhases; ph++ {
				for _, h := range hosts {
					if err := h.Step(ph); err != nil {
						t.Fatal(err)
					}
				}
				tr.Flip()
			}
		}
	}
	before := tr.Totals().Messages()
	run() // grow slabs, link and drain buffers to their high-water mark
	msgs := tr.Totals().Messages() - before
	if msgs < 20000 {
		t.Fatalf("a run moved only %d messages; too few to show per-message allocation", msgs)
	}
	// Reset validates the transport (a Traffic copy), which allocates; the
	// supersteps must add nothing to that.
	resetAllocs := testing.AllocsPerRun(10, reset)
	if allocs := testing.AllocsPerRun(10, run); allocs != resetAllocs {
		t.Fatalf("%d supersteps over TCP allocate %.1f times while moving %d messages",
			supersteps, allocs-resetAllocs, msgs)
	}
}
