package core

import (
	"testing"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
)

// TestHotPathAllocs_Stage1Kernels is the cross-check named by the
// //graphpart:hotpath annotations on killEdge, markAlive and overlapAlive:
// one scoring round — mark a neighbourhood, run the scan, bitset and word
// kernels, retire an edge — allocates nothing. All kernel state (stamps,
// bitsets, compacted rows) is preallocated by newRunState.
func TestHotPathAllocs_Stage1Kernels(t *testing.T) {
	g := hubbyGraph(17, 2000)
	a := partition.MustNew(g.NumEdges(), 4)
	st := newRunState(g, a, Options{})
	hub0, hub1 := graph.Vertex(0), graph.Vertex(1)
	bulk0, bulk1 := graph.Vertex(20), graph.Vertex(21)
	next := 0
	total := g.NumEdges()
	if allocs := testing.AllocsPerRun(200, func() {
		mark := st.markAlive(bulk0)
		_, _ = st.overlapAlive(bulk0, bulk1, mark) // stamp scan
		_, _ = st.overlapAlive(bulk0, hub0, mark)  // hub bitset
		_, _ = st.overlapAlive(hub0, hub1, 0)      // word AND + popcount
		if next < total {
			st.killEdge(graph.EdgeID(next)) // a fresh edge each run
			next++
		}
	}); allocs != 0 {
		t.Fatalf("stage-I kernels allocate %.1f times per scoring round", allocs)
	}
}
