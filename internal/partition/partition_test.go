package partition

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/rng"
)

// fig1Graph reproduces the 6-vertex example of the paper's Fig. 1:
// vertices a..f = 0..5 with a triangle a,b,c and a triangle d,e,f joined
// through a.
func fig1Graph() *graph.Graph {
	return graph.MustFromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, // left triangle a,b,c
		{U: 0, V: 3}, {U: 0, V: 4}, // a-d, a-e
		{U: 3, V: 4}, {U: 3, V: 5}, {U: 4, V: 5}, // right triangle d,e,f
	})
}

func TestNewRejectsBadP(t *testing.T) {
	if _, err := New(10, 0); err == nil {
		t.Fatal("accepted p=0")
	}
	if _, err := New(10, -3); err == nil {
		t.Fatal("accepted negative p")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(_, 0) did not panic")
		}
	}()
	MustNew(1, 0)
}

func TestAssignBasics(t *testing.T) {
	a := MustNew(5, 3)
	if a.AssignedCount() != 0 {
		t.Fatal("fresh assignment not empty")
	}
	if a.IsAssigned(0) {
		t.Fatal("edge 0 should start unassigned")
	}
	a.Assign(0, 2)
	if k, ok := a.PartitionOf(0); !ok || k != 2 {
		t.Fatalf("PartitionOf(0) = %d,%v", k, ok)
	}
	if a.Load(2) != 1 {
		t.Fatalf("load(2) = %d", a.Load(2))
	}
	// Reassignment moves the edge.
	a.Assign(0, 1)
	if a.Load(2) != 0 || a.Load(1) != 1 {
		t.Fatalf("reassignment loads: %v", a.Loads())
	}
	if a.AssignedCount() != 1 {
		t.Fatalf("assigned count %d", a.AssignedCount())
	}
}

func TestAssignOutOfRangePanics(t *testing.T) {
	a := MustNew(3, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Assign out of range did not panic")
		}
	}()
	a.Assign(0, 2)
}

func TestLoadsAndExtremes(t *testing.T) {
	a := MustNew(6, 3)
	for e := 0; e < 6; e++ {
		a.Assign(graph.EdgeID(e), e%2) // partitions 0 and 1 get 3 each, 2 empty
	}
	if a.MaxLoad() != 3 || a.MinLoad() != 0 {
		t.Fatalf("max/min = %d/%d", a.MaxLoad(), a.MinLoad())
	}
	loads := a.Loads()
	loads[0] = 99 // must be a copy
	if a.Load(0) == 99 {
		t.Fatal("Loads() aliases internal state")
	}
}

func TestClone(t *testing.T) {
	a := MustNew(4, 2)
	a.Assign(0, 1)
	b := a.Clone()
	b.Assign(1, 0)
	if a.IsAssigned(1) {
		t.Fatal("clone shares state with original")
	}
	if k, _ := b.PartitionOf(0); k != 1 {
		t.Fatal("clone lost assignment")
	}
}

func TestCapacity(t *testing.T) {
	cases := []struct{ m, p, want int }{
		{10, 2, 5}, {10, 3, 4}, {9, 3, 3}, {1, 10, 1}, {0, 4, 0}, {7, 0, 7},
	}
	for _, c := range cases {
		if got := Capacity(c.m, c.p); got != c.want {
			t.Errorf("Capacity(%d,%d) = %d, want %d", c.m, c.p, got, c.want)
		}
	}
}

// TestRFFig1 checks RF on the paper's own Fig 1(b) example: edges split so
// vertex a is mirrored once; RF = 7/6.
func TestRFFig1(t *testing.T) {
	g := fig1Graph()
	a := MustNew(g.NumEdges(), 2)
	// Partition 0: left triangle edges; partition 1: rest. Vertex 0 (a)
	// appears in both.
	for id := 0; id < g.NumEdges(); id++ {
		e := g.Edge(graph.EdgeID(id))
		if e.U <= 2 && e.V <= 2 {
			a.Assign(graph.EdgeID(id), 0)
		} else {
			a.Assign(graph.EdgeID(id), 1)
		}
	}
	rf, err := ReplicationFactor(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if want := 7.0 / 6.0; math.Abs(rf-want) > 1e-12 {
		t.Fatalf("RF = %v, want %v", rf, want)
	}
	m, err := Compute(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if m.SpannedVertices != 1 {
		t.Fatalf("spanned = %d, want 1 (vertex a)", m.SpannedVertices)
	}
	if m.TotalReplicas != 7 {
		t.Fatalf("replicas = %d, want 7", m.TotalReplicas)
	}
}

func TestRFSinglePartition(t *testing.T) {
	g := fig1Graph()
	a := MustNew(g.NumEdges(), 1)
	for id := 0; id < g.NumEdges(); id++ {
		a.Assign(graph.EdgeID(id), 0)
	}
	rf, err := ReplicationFactor(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if rf != 1.0 {
		t.Fatalf("single partition RF = %v, want 1", rf)
	}
}

func TestRFIsolatedVerticesInDenominator(t *testing.T) {
	// 2 connected vertices + 2 isolated: RF = 2/4.
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}})
	a := MustNew(1, 1)
	a.Assign(0, 0)
	rf, err := ReplicationFactor(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if rf != 0.5 {
		t.Fatalf("RF = %v, want 0.5", rf)
	}
}

func TestRFUnassignedEdgeError(t *testing.T) {
	g := fig1Graph()
	a := MustNew(g.NumEdges(), 2)
	if _, err := ReplicationFactor(g, a); err == nil {
		t.Fatal("RF on incomplete assignment should error")
	}
	if _, err := Compute(g, a); err == nil {
		t.Fatal("Compute on incomplete assignment should error")
	}
}

func TestRFSizeMismatch(t *testing.T) {
	g := fig1Graph()
	a := MustNew(3, 2)
	if _, err := ReplicationFactor(g, a); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestVertexSets(t *testing.T) {
	g := fig1Graph()
	a := MustNew(g.NumEdges(), 2)
	for id := 0; id < g.NumEdges(); id++ {
		e := g.Edge(graph.EdgeID(id))
		if e.U <= 2 && e.V <= 2 {
			a.Assign(graph.EdgeID(id), 0)
		} else {
			a.Assign(graph.EdgeID(id), 1)
		}
	}
	sets := VertexSets(g, a)
	if len(sets[0]) != 3 || len(sets[1]) != 4 {
		t.Fatalf("set sizes %d/%d, want 3/4", len(sets[0]), len(sets[1]))
	}
}

func TestModularityFig5(t *testing.T) {
	// Fig 5(a) of the paper: a partition with 2 internal and 3 external
	// edges has M = 0.67. Build: P0 = {edge(0,1), edge(1,2)} and three
	// boundary edges from {0,1,2} assigned elsewhere.
	g := graph.MustFromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, // internal to P0
		{U: 0, V: 3}, {U: 1, V: 4}, {U: 2, V: 5}, // external
	})
	a := MustNew(5, 2)
	assign := func(u, v graph.Vertex, k int) {
		id, ok := g.FindEdge(u, v)
		if !ok {
			t.Fatalf("edge (%d,%d) missing", u, v)
		}
		a.Assign(id, k)
	}
	assign(0, 1, 0)
	assign(1, 2, 0)
	assign(0, 3, 1)
	assign(1, 4, 1)
	assign(2, 5, 1)
	met, err := Compute(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if m0, want := met.Modularity[0], 2.0/3.0; math.Abs(m0-want) > 1e-12 {
		t.Fatalf("M(P0) = %v, want %v", m0, want)
	}
}

func TestModularityInfiniteAndZero(t *testing.T) {
	// Two disjoint triangles fully in their own partitions: no external
	// incidences -> M = +Inf for both.
	g := graph.MustFromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
	})
	a := MustNew(6, 3) // partition 2 stays empty
	for id := 0; id < 3; id++ {
		a.Assign(graph.EdgeID(id), 0)
	}
	for id := 3; id < 6; id++ {
		a.Assign(graph.EdgeID(id), 1)
	}
	met, err := Compute(g, a)
	if err != nil {
		t.Fatal(err)
	}
	mods := met.Modularity
	if !math.IsInf(mods[0], 1) || !math.IsInf(mods[1], 1) {
		t.Fatalf("isolated partitions should have infinite modularity: %v", mods)
	}
	if mods[2] != 0 {
		t.Fatalf("empty partition modularity %v, want 0", mods[2])
	}
}

// TestClaim1Identity verifies the paper's Claim 1 equation (6):
// RF = 1 + (1/p) * sum_k 1/M(P_k) — exact under our boundary-incidence
// definition of E_out when every partition is nonempty... the identity as
// printed assumes sum_k(E_k + Eout_k) counts each replica's degree, i.e.
// sum_k |V(P_k)|*d ~ 2(E_k + Eout_k) holds per partition only for
// degree-regular graphs; what IS exact is the incidence identity
// sum_{v in V(Pk)} deg(v) = 2|E(P_k)| + |E_out(P_k)|. We verify that.
func TestClaim1Identity(t *testing.T) {
	r := rng.New(21)
	// Random graph, random complete assignment.
	n := 60
	b := graph.NewBuilder(n)
	for i := 0; i < 300; i++ {
		_ = b.AddEdge(graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n)))
	}
	g := b.Build()
	p := 4
	a := MustNew(g.NumEdges(), p)
	for id := 0; id < g.NumEdges(); id++ {
		a.Assign(graph.EdgeID(id), r.Intn(p))
	}
	sets := VertexSets(g, a)
	internal := make([]int64, p)
	for id := 0; id < g.NumEdges(); id++ {
		k, _ := a.PartitionOf(graph.EdgeID(id))
		internal[k]++
	}
	met, err := Compute(g, a)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < p; k++ {
		var degSum int64
		for _, v := range sets[k] {
			degSum += int64(g.Degree(v))
		}
		ext := degSum - 2*internal[k]
		if internal[k] > 0 && ext > 0 {
			if got, want := met.Modularity[k], float64(internal[k])/float64(ext); math.Abs(got-want) > 1e-12 {
				t.Fatalf("partition %d modularity %v, want %v", k, got, want)
			}
		}
	}
}

// Property: RF is always in [1, p] for complete assignments on graphs
// without isolated vertices, and equals TotalReplicas/|V|.
func TestRFBoundsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 4 + r.Intn(40)
		b := graph.NewBuilder(n)
		// Spanning path ensures no isolated vertices.
		for i := 0; i < n-1; i++ {
			_ = b.AddEdge(graph.Vertex(i), graph.Vertex(i+1))
		}
		for i := 0; i < n; i++ {
			_ = b.AddEdge(graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n)))
		}
		g := b.Build()
		p := 1 + r.Intn(6)
		a := MustNew(g.NumEdges(), p)
		for id := 0; id < g.NumEdges(); id++ {
			a.Assign(graph.EdgeID(id), r.Intn(p))
		}
		rf, err := ReplicationFactor(g, a)
		if err != nil {
			return false
		}
		return rf >= 1.0-1e-9 && rf <= float64(p)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaCount(t *testing.T) {
	g := fig1Graph()
	a := MustNew(g.NumEdges(), 2)
	for id := 0; id < g.NumEdges(); id++ {
		e := g.Edge(graph.EdgeID(id))
		if e.U <= 2 && e.V <= 2 {
			a.Assign(graph.EdgeID(id), 0)
		} else {
			a.Assign(graph.EdgeID(id), 1)
		}
	}
	counts := ReplicaCount(g, a)
	if counts[0] != 2 {
		t.Fatalf("vertex a replicas = %d, want 2", counts[0])
	}
	for v := 1; v < 6; v++ {
		if counts[v] != 1 {
			t.Fatalf("vertex %d replicas = %d, want 1", v, counts[v])
		}
	}
}

func TestValidate(t *testing.T) {
	g := fig1Graph() // 8 edges
	a := MustNew(g.NumEdges(), 2)
	if err := Validate(g, a, ValidateOptions{}); err == nil {
		t.Fatal("incomplete assignment validated")
	}
	if err := Validate(g, a, ValidateOptions{AllowUnassigned: true}); err != nil {
		t.Fatalf("AllowUnassigned: %v", err)
	}
	for id := 0; id < g.NumEdges(); id++ {
		a.Assign(graph.EdgeID(id), 0) // all in one partition: load 8 > C=4
	}
	if err := Validate(g, a, ValidateOptions{}); err == nil {
		t.Fatal("overloaded partition validated")
	}
	if err := Validate(g, a, ValidateOptions{CapacitySlack: 2.0}); err != nil {
		t.Fatalf("slack 2.0 should allow load 8 with C=4: %v", err)
	}
	if err := Validate(g, a, ValidateOptions{Capacity: 8}); err != nil {
		t.Fatalf("explicit capacity 8: %v", err)
	}
	// Balanced assignment passes strict validation.
	for id := 0; id < g.NumEdges(); id++ {
		a.Assign(graph.EdgeID(id), id%2)
	}
	if err := Validate(g, a, ValidateOptions{}); err != nil {
		t.Fatalf("balanced assignment rejected: %v", err)
	}
}

func TestValidateSizeMismatch(t *testing.T) {
	g := fig1Graph()
	a := MustNew(2, 2)
	if err := Validate(g, a, ValidateOptions{}); err == nil {
		t.Fatal("size mismatch validated")
	}
}

func TestMetricsString(t *testing.T) {
	g := fig1Graph()
	a := MustNew(g.NumEdges(), 2)
	for id := 0; id < g.NumEdges(); id++ {
		a.Assign(graph.EdgeID(id), id%2)
	}
	m, err := Compute(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if m.String() == "" {
		t.Fatal("empty Metrics.String()")
	}
	if m.Balance != 1.0 {
		t.Fatalf("balance %v, want 1.0 for equal loads", m.Balance)
	}
}
