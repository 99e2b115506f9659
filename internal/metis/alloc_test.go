package metis

import (
	"testing"

	"github.com/graphpart/graphpart/internal/rng"
)

// TestHotPathAllocs_MetisLevel is the cross-check named by the
// //graphpart:hotpath annotations on heavyEdgeMatching, contract and
// refineFM. One level of the V-cycle — match, contract, refine the coarse
// bisection, project it and refine the fine one — runs on an arena that a
// first run has already sized; every later run must allocate nothing.
func TestHotPathAllocs_MetisLevel(t *testing.T) {
	w := fromGraph(randomGraph(41, 3000, 12000))
	n := w.numVertices()
	target0 := w.totalVertexWeight() / 2
	start := *rng.New(43)
	a := &arena{}
	cg := a.level(1).g
	coarseOf := make([]int32, n)
	coarseSide := make([]uint8, n)
	fineSide := make([]uint8, n)
	level := func() {
		r := start // every run draws the same matching
		match, coarseN := heavyEdgeMatching(w, &r, 64, a)
		contract(w, match, coarseN, cg, coarseOf, &a.cs)
		side := coarseSide[:coarseN]
		for v := range side {
			side[v] = uint8(v & 1)
		}
		refineFM(cg, side, target0, 1.05, 8, &a.fm)
		for v := range fineSide {
			fineSide[v] = side[coarseOf[v]]
		}
		refineFM(w, fineSide, target0, 1.05, 8, &a.fm)
	}
	if allocs := testing.AllocsPerRun(2, level); allocs != 0 {
		t.Fatalf("a warm METIS level allocates %.1f times", allocs)
	}
	if cg.numVertices() >= n {
		t.Fatalf("matching did not coarsen: %d -> %d vertices", n, cg.numVertices())
	}
}
