package core

import (
	"testing"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
)

// hubbyGraph builds a graph engineered to exercise every overlap kernel:
// three full hubs (degree ~n, far above hubDegreeThreshold), a band of
// mid-degree vertices (below the hub threshold but long enough to trigger
// galloping against short rows), and a low-degree bulk.
func hubbyGraph(seed uint64, n int) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	// Hubs 0..2: adjacent to each other and to every bulk vertex.
	for h := 0; h < 3; h++ {
		for o := h + 1; o < 3; o++ {
			_ = b.AddEdge(graph.Vertex(h), graph.Vertex(o))
		}
		for v := 10; v < n; v++ {
			_ = b.AddEdge(graph.Vertex(h), graph.Vertex(v))
		}
	}
	// Mids 3..7: ~100 random bulk neighbours (stays below the 128 threshold).
	for mid := 3; mid < 8; mid++ {
		for t := 0; t < 100; t++ {
			_ = b.AddEdge(graph.Vertex(mid), graph.Vertex(10+r.Intn(n-10)))
		}
	}
	// Bulk: a sparse random background so small rows exist everywhere.
	for v := 10; v < n; v++ {
		for t := 0; t < 2; t++ {
			_ = b.AddEdge(graph.Vertex(v), graph.Vertex(10+r.Intn(n-10)))
		}
	}
	return b.Build()
}

// naiveOverlap is the reference the kernels must match exactly: mark x's
// alive neighbourhood from the full CSR row, then count y's alive
// neighbours in the mark set.
func naiveOverlap(g *graph.Graph, a *partition.Assignment, x, y graph.Vertex) int {
	marked := make(map[graph.Vertex]bool)
	xn, xe := g.Neighbors(x), g.IncidentEdges(x)
	for i, u := range xn {
		if !a.IsAssigned(xe[i]) {
			marked[u] = true
		}
	}
	cnt := 0
	yn, ye := g.Neighbors(y), g.IncidentEdges(y)
	for i, u := range yn {
		if !a.IsAssigned(ye[i]) && marked[u] {
			cnt++
		}
	}
	return cnt
}

// killRandomEdges assigns a fraction of the edges (retiring them from the
// stage-I structures the way absorb does), so the kernels run against
// partially dead adjacency like mid-round.
func killRandomEdges(st *runState, r *rng.RNG, frac float64) {
	g := st.g
	for e := 0; e < g.NumEdges(); e++ {
		eid := graph.EdgeID(e)
		if st.a.IsAssigned(eid) || r.Float64() >= frac {
			continue
		}
		ed := g.Edges()[eid]
		st.a.Assign(eid, 0)
		st.aliveDeg[ed.U]--
		st.aliveDeg[ed.V]--
		st.killEdge(eid)
	}
}

// drainVertex kills alive edges of v until at most keep remain, which pulls
// a hub's alive degree far below a mid vertex's and forces the hub-side
// gallop branch.
func drainVertex(st *runState, v graph.Vertex, keep int) {
	for int(st.alive.n[v]) > keep {
		_, ve := st.alive.row(v)
		ed := st.g.Edge(ve[0])
		st.a.Assign(ve[0], 0)
		st.aliveDeg[ed.U]--
		st.aliveDeg[ed.V]--
		st.killSlot(v, st.alive.off[v])
	}
}

// TestOverlapKernelsDifferential fuzzes every kernel against the naive
// mark-and-scan reference: on a hubby graph with a random fraction of edges
// killed, overlapAlive must return the exact same count as the reference
// for every pair, whichever kernel the dispatch picks — and the dispatch
// must actually reach all four exact kernels. The oriented triangle counts
// of the cached path must equal overlapAlive for every alive neighbour of
// every vertex.
func TestOverlapKernelsDifferential(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		g := hubbyGraph(seed, 600)
		a, err := partition.New(g.NumEdges(), 4)
		if err != nil {
			t.Fatal(err)
		}
		st := newRunState(g, a, Options{Seed: seed})
		st.initPairKernels()
		r := rng.New(seed ^ 0x9e3779b97f4a7c15)
		killRandomEdges(st, r, 0.4)
		drainVertex(st, 2, 3) // hub 2 keeps its bitset but a tiny alive row
		if !st.aliveStructureOK() {
			t.Fatalf("seed %d: alive structures inconsistent after kills", seed)
		}

		var kindSeen [numKernels]int
		checkPair := func(x, y graph.Vertex) {
			mark := st.markAlive(x)
			got, kind := st.overlapAlive(x, y, mark)
			kindSeen[kind]++
			if want := naiveOverlap(g, st.a, x, y); got != want {
				t.Fatalf("seed %d: overlap(%d,%d) kernel %d = %d, reference = %d",
					seed, x, y, kind, got, want)
			}
		}
		// Directed pair sweep over the engineered strata plus random pairs.
		for x := 0; x < 8; x++ {
			for y := 0; y < 8; y++ {
				if x != y {
					checkPair(graph.Vertex(x), graph.Vertex(y))
				}
			}
		}
		n := g.NumVertices()
		for i := 0; i < 3000; i++ {
			x := graph.Vertex(r.Intn(n))
			y := graph.Vertex(r.Intn(n))
			if x == y {
				continue
			}
			checkPair(x, y)
		}
		for k, kind := range []kernelKind{kernelScan, kernelBitset, kernelWord, kernelGallop} {
			if kindSeen[kind] == 0 {
				t.Errorf("seed %d: kernel %d never dispatched (index %d)", seed, kind, k)
			}
		}

		triangles := 0
		for j := graph.Vertex(0); int(j) < n; j++ {
			jn, _ := st.alive.row(j)
			st.countTriangles(jn)
			for _, v := range jn {
				got := int(st.tri[v])
				st.tri[v] = -1
				want, _ := st.overlapAlive(v, j, st.markAlive(v))
				if got != want {
					t.Fatalf("seed %d: oriented count for candidate %d of %d = %d, overlapAlive = %d",
						seed, v, j, got, want)
				}
				triangles += got
			}
		}
		if triangles == 0 {
			t.Fatalf("seed %d: no alive triangles counted", seed)
		}
		for v, c := range st.tri {
			if c != -1 {
				t.Fatalf("seed %d: tri[%d] = %d left set after scoring", seed, v, c)
			}
		}
	}
}

// TestStage1KernelEngagement runs full partitionings and checks the kernel
// mix reported in Stats: a default run on a hub-heavy graph reports only
// oriented evaluations (under Scan, since the pair kernels are never built
// there), while a Stage1Exact run still reaches the bitset and word pair
// kernels. Neither reports sampled evaluations.
func TestStage1KernelEngagement(t *testing.T) {
	g := hubbyGraph(3, 600)
	_, stats, err := MustNew(Options{Seed: 42}).PartitionStats(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if k := stats.Stage1Kernels; k.Scan == 0 || k.Bitset != 0 || k.Word != 0 || k.Gallop != 0 || k.Sampled != 0 {
		t.Errorf("default run kernel counts %+v: want only oriented (scan) evaluations", k)
	}
	_, stats, err = MustNew(Options{Seed: 42, Stage1Exact: true}).PartitionStats(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if k := stats.Stage1Kernels; k.Bitset == 0 || k.Word == 0 || k.Sampled != 0 {
		t.Errorf("exact run kernel counts %+v: want bitset and word engaged, no sampling", k)
	}
}

// TestMu1HeapStaysBounded is the regression test for the lazy-heap
// compaction: across a full invariant-checked run on a hub-heavy graph the
// heap must never exceed 2x the frontier list plus the small-heap
// allowance (runLocalInvariantCheck folds mu1HeapBounded into its checks).
func TestMu1HeapStaysBounded(t *testing.T) {
	g := hubbyGraph(9, 800)
	bad, err := runLocalInvariantCheck(g, 6, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Errorf("invariant check found %d bad steps (incl. heap bound / alive structures)", bad)
	}
}
