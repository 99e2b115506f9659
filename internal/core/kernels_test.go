package core

import (
	"sort"
	"testing"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
)

// hubbyGraph builds a graph with rows of every length: three full hubs
// (degree ~n), a band of mid-degree vertices (~100 neighbours each) and a
// low-degree bulk.
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
	// Mids 3..7: ~100 random bulk neighbours.
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

// naiveOverlap is the reference |aliveN(x) ∩ aliveN(y)|, computed from the
// CSR and the assignment alone: for each unassigned edge (x,u) of the
// shorter row, binary-search u in the other row, which is sorted by
// neighbour id, and count it when (y,u) is unassigned too.
func naiveOverlap(g *graph.Graph, a *partition.Assignment, x, y graph.Vertex) int {
	if g.Degree(x) > g.Degree(y) {
		x, y = y, x
	}
	yn, ye := g.Neighbors(y), g.IncidentEdges(y)
	cnt := 0
	xe := g.IncidentEdges(x)
	for i, u := range g.Neighbors(x) {
		if a.IsAssigned(xe[i]) {
			continue
		}
		k := sort.Search(len(yn), func(k int) bool { return yn[k] >= u })
		if k < len(yn) && yn[k] == u && !a.IsAssigned(ye[k]) {
			cnt++
		}
	}
	return cnt
}

// killEdge retires edge e by id, finding its arc in the U endpoint's alive
// row; the partitioning loop always knows the slot.
func (st *runState) killEdge(e graph.EdgeID) {
	u := st.g.Edge(e).U
	st.alive.kill(u, st.alive.slotOf(u, e))
}

// killRandomEdges assigns a fraction of the edges (retiring them from the
// stage-I structures the way absorb does), so the counts run against
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
// a hub's alive degree far below a mid vertex's.
func drainVertex(st *runState, v graph.Vertex, keep int) {
	for int(st.alive.n[v]) > keep {
		_, ve := st.alive.row(v)
		ed := st.g.Edge(ve[0])
		st.a.Assign(ve[0], 0)
		st.aliveDeg[ed.U]--
		st.aliveDeg[ed.V]--
		st.alive.kill(v, st.alive.off[v])
	}
}

// TestOverlapKernelsDifferential fuzzes the oriented triangle count against
// the naive reference: on a hubby graph with a random fraction of edges
// killed and hub 2 drained to a tiny alive row, countTriangles over j's
// alive row must leave exactly naiveOverlap(v, j) for every alive
// neighbour v of every vertex j, and reset nothing it did not set.
func TestOverlapKernelsDifferential(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		g := hubbyGraph(seed, 600)
		a, err := partition.New(g.NumEdges(), 4)
		if err != nil {
			t.Fatal(err)
		}
		st := newRunState(g, a, Options{Seed: seed})
		r := rng.New(seed ^ 0x9e3779b97f4a7c15)
		killRandomEdges(st, r, 0.4)
		drainVertex(st, 2, 3)
		if !st.aliveStructureOK() {
			t.Fatalf("seed %d: alive structures inconsistent after kills", seed)
		}

		triangles := 0
		for j := graph.Vertex(0); int(j) < g.NumVertices(); j++ {
			jn, _ := st.alive.row(j)
			st.countTriangles(jn)
			for _, v := range jn {
				got := int(st.tri[v])
				st.tri[v] = -1
				if want := naiveOverlap(g, st.a, v, j); got != want {
					t.Fatalf("seed %d: oriented count for candidate %d of %d = %d, reference = %d",
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

// TestStage1KernelEngagement runs full partitionings and checks the
// evaluation counts reported in Stats: the default and Stage1Exact runs
// both score through the one oriented count, reported under Scan, and the
// other KernelCounts fields stay 0.
func TestStage1KernelEngagement(t *testing.T) {
	g := hubbyGraph(3, 600)
	for _, exact := range []bool{false, true} {
		_, stats, err := MustNew(Options{Seed: 42, Stage1Exact: exact}).PartitionStats(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		if k := stats.Stage1Kernels; k.Scan == 0 || k.Bitset != 0 || k.Word != 0 || k.Gallop != 0 || k.Sampled != 0 {
			t.Errorf("exact=%v kernel counts %+v: want only Scan evaluations", exact, k)
		}
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
