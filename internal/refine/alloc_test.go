package refine

import (
	"testing"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
)

// TestHotPathAllocs_RefineScoring is the cross-check named by the
// //graphpart:hotpath annotations on scoreVacate, vacateGain and
// collectSwapCandidates. Both work entirely in the runner's scratch, so
// once a first sweep has sized the bucket pool and a first scoring the
// per-partition neighbour lists, steady-state calls allocate nothing.
func TestHotPathAllocs_RefineScoring(t *testing.T) {
	g := randomGraph(5, 200, 400)
	const p = 8
	a := partition.MustNew(g.NumEdges(), p)
	r := rng.New(11)
	for id := 0; id < g.NumEdges(); id++ {
		a.Assign(graph.EdgeID(id), r.Intn(p))
	}
	st, err := partition.NewState(g, a)
	if err != nil {
		t.Fatal(err)
	}
	run := newRunner(g, st, g.NumEdges(), 1)

	var v graph.Vertex
	found := false
	for i := 0; i < g.NumVertices(); i++ {
		if st.Replicas(graph.Vertex(i)) >= 2 {
			v, found = graph.Vertex(i), true
			break
		}
	}
	if !found {
		t.Fatal("random assignment produced no spanned vertex")
	}
	edges := make([]graph.EdgeID, 0, g.NumEdges())
	_ = run.scoreVacate(v) // warm the per-partition scratch slices
	pp := st.Partitions(v, nil)
	from, to := pp[0], pp[1]
	if allocs := testing.AllocsPerRun(300, func() {
		_ = run.scoreVacate(v)
		_, edges = run.vacateGain(v, from, to, edges[:0])
	}); allocs != 0 {
		t.Fatalf("vacate scoring allocates %.1f times per call pair", allocs)
	}

	if st.NumBoundary() < 20 {
		t.Fatalf("boundary too small to measure: %d edges", st.NumBoundary())
	}
	run.collectSwapCandidates() // warm pass: sizes the bucket pool
	if allocs := testing.AllocsPerRun(300, run.collectSwapCandidates); allocs != 0 {
		t.Fatalf("swap candidate sweep allocates %.1f times per warm pass", allocs)
	}
}
