package engine

import (
	"testing"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/invariants"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
)

// TestHotPathAllocs_Superstep is the cross-check named by the
// //graphpart:hotpath annotations on the five machine phases: after the
// transport queues grow to their high-water mark, a full superstep —
// gather, apply, scatter, activate, finalize across every machine —
// allocates nothing. The phases run synchronously here (the coordinator's
// loop without goroutines); the phase schedule is identical, only the
// barrier handshake is gone, so what AllocsPerRun sees is exactly the
// per-superstep machine and transport work.
func TestHotPathAllocs_Superstep(t *testing.T) {
	r := rng.New(7)
	b := graph.NewBuilder(32)
	for i := 1; i < 32; i++ {
		_ = b.AddEdge(graph.Vertex(i), graph.Vertex(r.Intn(i)))
	}
	for i := 0; i < 48; i++ {
		_ = b.AddEdge(graph.Vertex(r.Intn(32)), graph.Vertex(r.Intn(32)))
	}
	g := b.Build()
	const p = 3
	a := partition.MustNew(g.NumEdges(), p)
	for id := 0; id < g.NumEdges(); id++ {
		a.Assign(graph.EdgeID(id), id%p)
	}
	en, err := New(g, a)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewMemTransport(p)
	// Tolerance 0 keeps vertices active while values still change, so the
	// steady state being measured carries real message traffic.
	prog := NewPageRank(g.NumVertices(), 0.85, 0)
	for _, m := range en.machines {
		m.reset(prog, tr)
	}
	superstep := func() {
		for ph := 0; ph < numPhases; ph++ {
			for _, m := range en.machines {
				m.step(ph)
			}
			tr.Flip()
		}
	}
	for i := 0; i < 4; i++ {
		superstep() // grow queues and drain buffers to their high-water mark
	}
	if allocs := testing.AllocsPerRun(100, superstep); allocs != 0 {
		t.Fatalf("superstep allocates %.1f times per step", allocs)
	}
}

// TestNewAllocsPerMachine: New allocates a fixed set of arrays per machine
// plus a few build-wide tables, so its allocation count does not grow with
// the graph. Two graphs 8x apart at the same p must allocate alike.
func TestNewAllocsPerMachine(t *testing.T) {
	if invariants.Enabled {
		t.Skip("sanitizer builds run per-edge checks in partition.Validate and New")
	}
	const p = 4
	allocs := func(n int) float64 {
		g := testGraph(13, n, 3*n)
		a := partition.MustNew(g.NumEdges(), p)
		for id := 0; id < g.NumEdges(); id++ {
			a.Assign(graph.EdgeID(id), id%p)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := New(g, a); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(500), allocs(8*500)
	t.Logf("New allocations: %.0f at n=500, %.0f at n=4000 (p=%d)", small, large, p)
	if large > small+2 {
		t.Fatalf("New allocates %.0f times at n=4000 but %.0f at n=500", large, small)
	}
}
