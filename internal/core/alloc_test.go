package core

import (
	"testing"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
)

// TestHotPathAllocs_Stage1Kernels is the cross-check named by the
// //graphpart:hotpath annotations on aliveAdj.kill and countTriangles: one
// scoring round — count a row's oriented triangles, retire an edge by
// slot — allocates nothing. All kernel state (counts, alive rows) is
// preallocated by newRunState.
func TestHotPathAllocs_Stage1Kernels(t *testing.T) {
	g := hubbyGraph(17, 2000)
	a := partition.MustNew(g.NumEdges(), 4)
	st := newRunState(g, a, Options{})
	bulk0 := graph.Vertex(20)
	victim := graph.Vertex(2) // a hub: ~2000 edges outlast the runs
	if allocs := testing.AllocsPerRun(200, func() {
		jn, _ := st.alive.row(bulk0)
		st.countTriangles(jn)
		for _, v := range jn {
			st.tri[v] = -1
		}
		if st.alive.n[victim] > 0 {
			st.alive.kill(victim, st.alive.off[victim]) // a fresh edge each run
		}
	}); allocs != 0 {
		t.Fatalf("stage-I kernels allocate %.1f times per scoring round", allocs)
	}
}
