package partition

import (
	"testing"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/invariants"
	"github.com/graphpart/graphpart/internal/rng"
)

// TestHotPathAllocs_MoveSwap is the cross-check named by the
// //graphpart:hotpath annotations on State.Move and State.Swap: reversible
// move and swap round trips allocate nothing. p stays at 8 so the dense replica-count
// path (p <= 64) is the one measured — the sparse path carries its own
// suppressed GL010 for amortized row growth.
func TestHotPathAllocs_MoveSwap(t *testing.T) {
	if invariants.Enabled {
		t.Skip("invariants builds run AssertConsistent inside Move, which allocates")
	}
	r := rng.New(99)
	g, a := randomTestGraph(r, 64, 200, 8)
	s, err := NewState(g, a)
	if err != nil {
		t.Fatal(err)
	}
	e1 := graph.EdgeID(0)
	k1, _ := a.PartitionOf(e1)
	var e2 graph.EdgeID
	found := false
	for id := 1; id < g.NumEdges(); id++ {
		if k, _ := a.PartitionOf(graph.EdgeID(id)); k != k1 {
			e2, found = graph.EdgeID(id), true
			break
		}
	}
	if !found {
		t.Fatal("every edge landed in one partition")
	}
	to, _ := a.PartitionOf(e2)
	roundTrip := func() {
		s.Move(e1, to)
		s.Move(e1, k1)
		s.Swap(e1, e2)
		s.Swap(e1, e2)
	}
	if allocs := testing.AllocsPerRun(500, roundTrip); allocs != 0 {
		t.Fatalf("Move/Swap round trip allocates %.1f times", allocs)
	}
}
