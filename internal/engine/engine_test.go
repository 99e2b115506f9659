package engine

import (
	"math"
	"slices"
	"testing"

	"github.com/graphpart/graphpart/internal/core"
	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
	"github.com/graphpart/graphpart/internal/streaming"
)

func testGraph(seed uint64, n, extra int) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		_ = b.AddEdge(graph.Vertex(i), graph.Vertex(r.Intn(i)))
	}
	for i := 0; i < extra; i++ {
		_ = b.AddEdge(graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n)))
	}
	return b.Build()
}

func partitioned(t *testing.T, g *graph.Graph, p int) *partition.Assignment {
	t.Helper()
	a, err := core.MustNew(core.Options{Seed: 1}).Partition(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewRejectsIncomplete(t *testing.T) {
	g := testGraph(1, 20, 20)
	a := partition.MustNew(g.NumEdges(), 2)
	if _, err := New(g, a); err == nil {
		t.Fatal("incomplete assignment accepted")
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	g := testGraph(2, 20, 20)
	e, err := New(g, partitioned(t, g, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Run(nil, 5); err == nil {
		t.Fatal("nil program accepted")
	}
	if _, _, err := e.Run(&degreeCount{}, 0); err == nil {
		t.Fatal("zero supersteps accepted")
	}
}

func TestDegreeCountExact(t *testing.T) {
	g := testGraph(3, 100, 200)
	e, err := New(g, partitioned(t, g, 4))
	if err != nil {
		t.Fatal(err)
	}
	values, _, err := e.Run(&degreeCount{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if int(values[v]) != g.Degree(graph.Vertex(v)) {
			t.Fatalf("vertex %d: engine degree %v, true %d", v, values[v], g.Degree(graph.Vertex(v)))
		}
	}
}

func TestPageRankMatchesReference(t *testing.T) {
	g := testGraph(4, 150, 450)
	for _, p := range []int{1, 3, 8} {
		e, err := New(g, partitioned(t, g, p))
		if err != nil {
			t.Fatal(err)
		}
		values, stats, err := e.Run(NewPageRank(g.NumVertices(), 0.85, 0), 30)
		if err != nil {
			t.Fatal(err)
		}
		ref := referencePageRank(g, 0.85, stats.Supersteps)
		for v := 0; v < g.NumVertices(); v++ {
			if math.Abs(values[v]-ref[v]) > 1e-6 {
				t.Fatalf("p=%d vertex %d: engine %v, reference %v", p, v, values[v], ref[v])
			}
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := testGraph(5, 120, 360)
	e, err := New(g, partitioned(t, g, 5))
	if err != nil {
		t.Fatal(err)
	}
	values, _, err := e.Run(NewPageRank(g.NumVertices(), 0.85, 1e-12), 100)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	// Undirected connected-ish graph: total rank stays ~1.
	if math.Abs(sum-1) > 0.01 {
		t.Fatalf("rank sum %v, want ~1", sum)
	}
}

func TestSSSPMatchesBFS(t *testing.T) {
	g := testGraph(6, 200, 300)
	e, err := New(g, partitioned(t, g, 6))
	if err != nil {
		t.Fatal(err)
	}
	src := graph.Vertex(0)
	values, _, err := e.Run(&SSSP{Source: src}, 200)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceSSSP(g, src)
	for v := 0; v < g.NumVertices(); v++ {
		if values[v] != ref[v] && !(math.IsInf(values[v], 1) && math.IsInf(ref[v], 1)) {
			t.Fatalf("vertex %d: engine %v, BFS %v", v, values[v], ref[v])
		}
	}
}

func TestComponentsMatchesReference(t *testing.T) {
	// Two disjoint triangles plus isolated vertex.
	g := graph.MustFromEdges(7, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
	})
	e, err := New(g, partitioned(t, g, 2))
	if err != nil {
		t.Fatal(err)
	}
	values, _, err := e.Run(&Components{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		if values[v] != 0 {
			t.Fatalf("vertex %d label %v, want 0", v, values[v])
		}
	}
	for v := 3; v < 6; v++ {
		if values[v] != 3 {
			t.Fatalf("vertex %d label %v, want 3", v, values[v])
		}
	}
	if values[6] != 6 {
		t.Fatalf("isolated vertex label %v, want 6", values[6])
	}
}

func TestConvergenceStopsEarly(t *testing.T) {
	g := testGraph(7, 50, 100)
	e, err := New(g, partitioned(t, g, 3))
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := e.Run(&degreeCount{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	// degreeCount stabilises after two supersteps (set, then confirm).
	if stats.Supersteps > 3 {
		t.Fatalf("degree count ran %d supersteps", stats.Supersteps)
	}
}

// TestMessagesTrackRF is the engine-level restatement of the paper's claim:
// lower replication factor means less synchronisation traffic, on the same
// graph, same program, same superstep count.
func TestMessagesTrackRF(t *testing.T) {
	g := gen.PlantedCommunities(gen.CommunityConfig{
		Vertices: 500, Communities: 10, TargetEdges: 5000, IntraFraction: 0.85,
	}, rng.New(8))
	p := 10
	aTLP := partitioned(t, g, p)
	aRand, err := streaming.NewRandom(9).Partition(g, p)
	if err != nil {
		t.Fatal(err)
	}
	rfTLP, err := partition.ReplicationFactor(g, aTLP)
	if err != nil {
		t.Fatal(err)
	}
	rfRand, err := partition.ReplicationFactor(g, aRand)
	if err != nil {
		t.Fatal(err)
	}
	if rfTLP >= rfRand {
		t.Skipf("TLP RF %.3f not below random %.3f on this seed", rfTLP, rfRand)
	}
	eTLP, err := New(g, aTLP)
	if err != nil {
		t.Fatal(err)
	}
	eRand, err := New(g, aRand)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 5
	_, sTLP, err := eTLP.Run(NewPageRank(g.NumVertices(), 0.85, 0), steps)
	if err != nil {
		t.Fatal(err)
	}
	_, sRand, err := eRand.Run(NewPageRank(g.NumVertices(), 0.85, 0), steps)
	if err != nil {
		t.Fatal(err)
	}
	if sTLP.Messages() >= sRand.Messages() {
		t.Fatalf("TLP messages %d not below random %d despite lower RF (%.3f vs %.3f)",
			sTLP.Messages(), sRand.Messages(), rfTLP, rfRand)
	}
}

func TestEngineRF(t *testing.T) {
	g := testGraph(10, 80, 160)
	a := partitioned(t, g, 4)
	e, err := New(g, a)
	if err != nil {
		t.Fatal(err)
	}
	rf := e.ReplicationFactor()
	if rf < 1 || rf > 4 {
		t.Fatalf("engine RF %v out of range", rf)
	}
	// Engine RF >= paper RF because the engine divides by active
	// vertices, the paper by all vertices.
	paperRF, err := partition.ReplicationFactor(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if rf < paperRF-1e-9 {
		t.Fatalf("engine RF %v below paper RF %v", rf, paperRF)
	}
}

func TestMastersCoverActiveVertices(t *testing.T) {
	g := testGraph(11, 60, 120)
	e, err := New(g, partitioned(t, g, 3))
	if err != nil {
		t.Fatal(err)
	}
	active := 0
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(graph.Vertex(v)) > 0 {
			active++
		}
	}
	if e.stats.Masters != active {
		t.Fatalf("masters %d, active vertices %d", e.stats.Masters, active)
	}
}

func BenchmarkEnginePageRank(b *testing.B) {
	g := gen.ChungLu(gen.ChungLuConfig{Vertices: 5000, TargetEdges: 25000, Exponent: 2.1}, rng.New(12))
	a, err := core.MustNew(core.Options{Seed: 1}).Partition(g, 8)
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(g, a)
	if err != nil {
		b.Fatal(err)
	}
	prog := NewPageRank(g.NumVertices(), 0.85, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Run(prog, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMasterElectionTies hand-builds an assignment whose vertices tie on
// local incidence: the master is the replica with the most local edges,
// ties to the lowest machine id. The structure check must accept the build
// and reject a broken election or a row out of slot order.
func TestMasterElectionTies(t *testing.T) {
	g := graph.MustFromEdges(7, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}, {U: 0, V: 5}, {U: 5, V: 6},
	})
	a := partition.MustNew(g.NumEdges(), 3)
	for _, x := range []struct {
		u, v graph.Vertex
		k    int
	}{{0, 1, 2}, {0, 2, 2}, {0, 3, 1}, {0, 4, 1}, {0, 5, 0}, {5, 6, 2}} {
		id, _ := g.FindEdge(x.u, x.v)
		a.Assign(id, x.k)
	}
	e, err := New(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.machinesStructureOK(a); err != nil {
		t.Fatal(err)
	}
	if e.stats.TotalReplicas != 10 || e.stats.Masters != 7 {
		t.Fatalf("replicas %d masters %d, want 10 and 7", e.stats.TotalReplicas, e.stats.Masters)
	}
	// Vertex 0 has 1/2/2 edges on machines 0/1/2, vertex 5 has 1/0/1.
	for v, want := range map[graph.Vertex]int32{0: 1, 5: 0, 6: 2} {
		for k, m := range e.machines {
			if i, ok := slices.BinarySearch(m.verts, v); ok && m.masterMachine[i] != want {
				t.Fatalf("vertex %d on machine %d: master %d, want %d", v, k, m.masterMachine[i], want)
			}
		}
	}
	m := e.machines[2] // holds vertex 0's arcs to 1 and 2, slots 0 and 1
	m.slot[m.off[0]], m.slot[m.off[0]+1] = m.slot[m.off[0]+1], m.slot[m.off[0]]
	if e.machinesStructureOK(a) == nil {
		t.Fatal("row out of slot order accepted")
	}
	m.slot[m.off[0]], m.slot[m.off[0]+1] = m.slot[m.off[0]+1], m.slot[m.off[0]]
	for _, m := range e.machines {
		if i, ok := slices.BinarySearch(m.verts, 0); ok {
			m.masterMachine[i] = 2
		}
	}
	if e.machinesStructureOK(a) == nil {
		t.Fatal("tie broken to the higher machine id accepted")
	}
}

// TestTransportSizeMismatch: a transport built for a different machine
// count is rejected before any machine goroutine could index past it, on
// both the in-process and the hosted path.
func TestTransportSizeMismatch(t *testing.T) {
	g := testGraph(12, 60, 120)
	e, err := New(g, partitioned(t, g, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.RunWith(&degreeCount{}, 5, NewMemTransport(2)); err == nil {
		t.Fatal("RunWith accepted a 2-machine transport on a 3-machine engine")
	}
	h, err := e.Host(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Reset(&degreeCount{}, NewMemTransport(4)); err == nil {
		t.Fatal("Reset accepted a 4-machine transport on a 3-machine engine")
	}
	if _, _, err := e.RunWith(&degreeCount{}, 5, NewMemTransport(3)); err != nil {
		t.Fatalf("matching transport rejected: %v", err)
	}
}
