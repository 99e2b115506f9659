package core

import (
	"testing"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
)

// TestHotPathAllocs_Stage1Kernels is the cross-check named by the
// //graphpart:hotpath annotations on killSlot, countTriangles, markAlive
// and overlapAlive: one scoring round — count a row's oriented triangles,
// mark a neighbourhood, run the scan, bitset and word pair kernels, retire
// an edge by slot — allocates nothing. All kernel state (counts, stamps,
// bitsets, alive rows) is preallocated by newRunState and initPairKernels.
func TestHotPathAllocs_Stage1Kernels(t *testing.T) {
	g := hubbyGraph(17, 2000)
	a := partition.MustNew(g.NumEdges(), 4)
	st := newRunState(g, a, Options{})
	st.initPairKernels()
	hub0, hub1 := graph.Vertex(0), graph.Vertex(1)
	bulk0, bulk1 := graph.Vertex(20), graph.Vertex(21)
	victim := graph.Vertex(2) // a hub: ~2000 edges outlast the runs
	if allocs := testing.AllocsPerRun(200, func() {
		jn, _ := st.alive.row(bulk0)
		st.countTriangles(jn)
		for _, v := range jn {
			st.tri[v] = -1
		}
		mark := st.markAlive(bulk0)
		_, _ = st.overlapAlive(bulk0, bulk1, mark) // stamp scan
		_, _ = st.overlapAlive(bulk0, hub0, mark)  // hub bitset
		_, _ = st.overlapAlive(hub0, hub1, 0)      // word AND + popcount
		if st.alive.n[victim] > 0 {
			st.killSlot(victim, st.alive.off[victim]) // a fresh edge each run
		}
	}); allocs != 0 {
		t.Fatalf("stage-I kernels allocate %.1f times per scoring round", allocs)
	}
}
