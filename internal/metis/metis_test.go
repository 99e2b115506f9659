package metis

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
	"github.com/graphpart/graphpart/internal/source"
)

func randomGraph(seed uint64, n, extra int) *graph.Graph {
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

func TestWGraphFromGraph(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	w := fromGraph(g)
	if w.numVertices() != 4 {
		t.Fatalf("V=%d", w.numVertices())
	}
	if w.totalVertexWeight() != 4 {
		t.Fatalf("total weight %d", w.totalVertexWeight())
	}
	if w.degree(1) != 2 {
		t.Fatalf("degree(1)=%d", w.degree(1))
	}
	nbrs, wts := w.neighbors(1)
	if len(nbrs) != 2 || wts[0] != 1 {
		t.Fatalf("neighbors(1)=%v %v", nbrs, wts)
	}
}

func TestHeavyEdgeMatchingValid(t *testing.T) {
	g := randomGraph(1, 100, 300)
	w := fromGraph(g)
	match, coarseN := heavyEdgeMatching(w, rng.New(2), 1000, &arena{})
	if coarseN <= 0 || coarseN > 100 {
		t.Fatalf("coarseN=%d", coarseN)
	}
	for v := int32(0); v < 100; v++ {
		m := match[v]
		if m == -1 {
			t.Fatalf("vertex %d unmatched marker left", v)
		}
		if m != v && match[m] != v {
			t.Fatalf("matching not symmetric: %d->%d->%d", v, m, match[m])
		}
	}
}

func TestContractPreservesWeight(t *testing.T) {
	g := randomGraph(3, 80, 200)
	w := fromGraph(g)
	match, coarseN := heavyEdgeMatching(w, rng.New(4), 1000, &arena{})
	cg, coarseOf := new(wgraph), make([]int32, w.numVertices())
	contract(w, match, coarseN, cg, coarseOf, &contractScratch{})
	if cg.numVertices() != coarseN {
		t.Fatalf("coarse V=%d, want %d", cg.numVertices(), coarseN)
	}
	if cg.totalVertexWeight() != w.totalVertexWeight() {
		t.Fatalf("vertex weight not preserved: %d vs %d",
			cg.totalVertexWeight(), w.totalVertexWeight())
	}
	// Total edge weight = original minus collapsed internal edges.
	var coarseW, fineW int64
	for v := int32(0); int(v) < cg.numVertices(); v++ {
		_, wts := cg.neighbors(v)
		for _, x := range wts {
			coarseW += int64(x)
		}
	}
	for v := int32(0); int(v) < w.numVertices(); v++ {
		nbrs, wts := w.neighbors(v)
		for i, u := range nbrs {
			if coarseOf[u] != coarseOf[v] {
				fineW += int64(wts[i])
			}
		}
	}
	if coarseW != fineW {
		t.Fatalf("cross edge weight mismatch: %d vs %d", coarseW, fineW)
	}
	for _, c := range coarseOf {
		if c < 0 || int(c) >= coarseN {
			t.Fatalf("coarseOf out of range: %d", c)
		}
	}
}

// contractReference is the map-and-sort contraction contract replaced: one
// merge map and one sorted arc list per coarse vertex. It is the oracle
// contract must match: the same CSR up to the order of arcs within a row.
func contractReference(w *wgraph, match []int32, coarseN int) (*wgraph, []int32) {
	n := w.numVertices()
	coarseOf := make([]int32, n)
	next := int32(0)
	for v := int32(0); int(v) < n; v++ {
		if match[v] == v || match[v] > v {
			coarseOf[v] = next
			if match[v] != v {
				coarseOf[match[v]] = next
			}
			next++
		}
	}
	cg := &wgraph{
		offsets: make([]int32, coarseN+1),
		vwgt:    make([]int32, coarseN),
	}
	for v := int32(0); int(v) < n; v++ {
		cg.vwgt[coarseOf[v]] += w.vwgt[v]
	}
	type arc struct {
		to int32
		w  int32
	}
	arcs := make([][]arc, coarseN)
	merge := make(map[int32]int32, 16)
	members := make([][]int32, coarseN)
	for v := int32(0); int(v) < n; v++ {
		c := coarseOf[v]
		members[c] = append(members[c], v)
	}
	for c := int32(0); int(c) < coarseN; c++ {
		for k := range merge {
			delete(merge, k)
		}
		for _, v := range members[c] {
			nbrs, wts := w.neighbors(v)
			for i, u := range nbrs {
				cu := coarseOf[u]
				if cu == c {
					continue
				}
				merge[cu] += wts[i]
			}
		}
		lst := make([]arc, 0, len(merge))
		for to, wt := range merge {
			lst = append(lst, arc{to, wt})
		}
		sort.Slice(lst, func(i, j int) bool { return lst[i].to < lst[j].to })
		arcs[c] = lst
	}
	total := 0
	for _, l := range arcs {
		total += len(l)
	}
	cg.adj = make([]int32, total)
	cg.wadj = make([]int32, total)
	pos := int32(0)
	for c := 0; c < coarseN; c++ {
		cg.offsets[c] = pos
		for _, a := range arcs[c] {
			cg.adj[pos] = a.to
			cg.wadj[pos] = a.w
			pos++
		}
	}
	cg.offsets[coarseN] = pos
	return cg, coarseOf
}

// TestContractMatchesReference drives whole coarsening chains — so later
// levels see weighted vertices and edges — on random graphs, through one
// reused arena. Every level's offsets, vertex weights and coarseOf must
// equal the reference oracle byte for byte, and each row must hold the
// reference row's arcs: contract writes rows in first-touch order, so a
// row is compared as a sorted copy. Each coarse graph must also be a valid
// symmetric CSR: no duplicate target, no self-arcs, w(c,cu) = w(cu,c).
func TestContractMatchesReference(t *testing.T) {
	a := &arena{}
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		n := 2 + r.Intn(400)
		w := fromGraph(randomGraph(seed, n, r.Intn(4*n)))
		maxVWgt := int64(1 + r.Intn(n))
		for depth := 1; w.numVertices() > 1; depth++ {
			match, coarseN := heavyEdgeMatching(w, r, maxVWgt, a)
			if coarseN == w.numVertices() {
				break
			}
			want, wantOf := contractReference(w, match, coarseN)
			got, coarseOf := a.level(depth).g, make([]int32, w.numVertices())
			contract(w, match, coarseN, got, coarseOf, &a.cs)
			for _, f := range []struct {
				name      string
				got, want []int32
			}{
				{"offsets", got.offsets, want.offsets},
				{"vwgt", got.vwgt, want.vwgt},
				{"coarseOf", coarseOf, wantOf},
			} {
				if !slices.Equal(f.got, f.want) {
					t.Fatalf("seed %d depth %d: %s differs from the reference:\n got %v\nwant %v",
						seed, depth, f.name, f.got, f.want)
				}
			}
			for c := int32(0); int(c) < coarseN; c++ {
				gotRow, wantRow := sortedRow(got, c), sortedRow(want, c)
				if !slices.Equal(gotRow, wantRow) {
					t.Fatalf("seed %d depth %d: row %d holds arcs %v, reference %v",
						seed, depth, c, gotRow, wantRow)
				}
			}
			checkSymmetricCSR(t, got)
			// Contract the oracle's copy onward so the arena's buffers
			// are rewritten, not read, by the next level.
			w = want
		}
	}
}

// sortedRow returns row c of w as (target, weight) pairs sorted by target.
func sortedRow(w *wgraph, c int32) [][2]int32 {
	nbrs, wts := w.neighbors(c)
	row := make([][2]int32, len(nbrs))
	for i, cu := range nbrs {
		row[i] = [2]int32{cu, wts[i]}
	}
	slices.SortFunc(row, func(a, b [2]int32) int { return int(a[0]) - int(b[0]) })
	return row
}

// checkSymmetricCSR fails unless no row of w repeats a target or holds a
// self-arc and every arc's reverse carries the same weight.
func checkSymmetricCSR(t *testing.T, w *wgraph) {
	t.Helper()
	for c := int32(0); int(c) < w.numVertices(); c++ {
		row := sortedRow(w, c)
		for i, a := range row {
			if a[0] == c {
				t.Fatalf("self-arc at %d", c)
			}
			if i > 0 && row[i-1][0] == a[0] {
				t.Fatalf("row %d repeats target %d", c, a[0])
			}
			back := sortedRow(w, a[0])
			j, ok := slices.BinarySearchFunc(back, c, func(b [2]int32, c int32) int { return int(b[0]) - int(c) })
			if !ok || back[j][1] != a[1] {
				t.Fatalf("arc %d->%d (w=%d) has no equal-weight reverse", c, a[0], a[1])
			}
		}
	}
}

func TestGreedyGrowBalance(t *testing.T) {
	g := randomGraph(5, 200, 600)
	w := fromGraph(g)
	side := greedyGrow(w, 100, rng.New(6), 4)
	w0, w1 := sideWeights(w, side)
	if w0+w1 != 200 {
		t.Fatalf("weights %d+%d != 200", w0, w1)
	}
	if w0 < 50 || w0 > 150 {
		t.Fatalf("side 0 weight %d badly off target 100", w0)
	}
}

func TestRefineFMImprovesOrKeepsCut(t *testing.T) {
	g := randomGraph(7, 150, 450)
	w := fromGraph(g)
	// Awful initial bisection: alternating sides.
	side := make([]uint8, 150)
	for i := range side {
		side[i] = uint8(i % 2)
	}
	before := cutWeight(w, side)
	refineFM(w, side, 75, 1.05, 8, &fmScratch{})
	after := cutWeight(w, side)
	if after > before {
		t.Fatalf("FM worsened the cut: %d -> %d", before, after)
	}
	if after == before {
		t.Logf("FM made no progress (before=%d)", before)
	}
	w0, w1 := sideWeights(w, side)
	if float64(w0) > 75*1.05+1 || float64(w1) > 75*1.05+1 {
		t.Fatalf("FM violated balance: %d/%d", w0, w1)
	}
}

func TestVertexPartitionComplete(t *testing.T) {
	g := randomGraph(9, 500, 1500)
	m := New(Config{Seed: 11})
	for _, p := range []int{2, 3, 5, 10} {
		labels, err := m.VertexPartition(g, p)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, p)
		for _, l := range labels {
			if l < 0 || int(l) >= p {
				t.Fatalf("label %d out of range", l)
			}
			counts[l]++
		}
		// Vertex balance within ~2x of average (recursive bisection with
		// 5% tolerance per level compounds).
		avg := 500 / p
		for k, c := range counts {
			if c > 2*avg+10 {
				t.Fatalf("p=%d part %d has %d of %d vertices", p, k, c, 500)
			}
		}
	}
}

func TestVertexPartitionErrors(t *testing.T) {
	m := New(Config{})
	if _, err := m.VertexPartition(nil, 2); err == nil {
		t.Fatal("nil graph accepted")
	}
	g := randomGraph(13, 10, 10)
	if _, err := m.VertexPartition(g, 0); err == nil {
		t.Fatal("p=0 accepted")
	}
}

// TestVertexPartitionRejectsBadConfig: a non-finite ImbalanceTol used to
// make every FM move balance-infeasible (int64(NaN) is MinInt64 on amd64),
// silently disabling refinement, and negative counts quietly became
// defaults. Every entry point must now return an error; zero fields still
// mean "default".
func TestVertexPartitionRejectsBadConfig(t *testing.T) {
	g := randomGraph(14, 200, 600)
	bad := []Config{
		{ImbalanceTol: math.NaN()},
		{ImbalanceTol: math.Inf(1)},
		{ImbalanceTol: math.Inf(-1)},
		{CoarsenTo: -1},
		{FMPasses: -1},
		{InitialTrials: -1},
	}
	for _, cfg := range bad {
		if _, err := New(cfg).VertexPartition(g, 10); err == nil {
			t.Errorf("VertexPartition accepted %+v", cfg)
		}
		if _, err := New(cfg).Partition(g, 10); err == nil {
			t.Errorf("Partition accepted %+v", cfg)
		}
		if _, err := NewFlatKL(cfg).Partition(g, 10); err == nil {
			t.Errorf("FlatKL.Partition accepted %+v", cfg)
		}
	}
	want, err := New(Config{Seed: 3, ImbalanceTol: 1.05, CoarsenTo: 128, FMPasses: 8, InitialTrials: 4}).VertexPartition(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(Config{Seed: 3}).VertexPartition(g, 10)
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("zero fields do not select the defaults (err %v)", err)
	}
	if _, err := NewFlatKL(Config{}).Partition(g, 10); err != nil {
		t.Fatal(err)
	}
}

func TestVertexPartitionTrivial(t *testing.T) {
	g := randomGraph(15, 30, 50)
	m := New(Config{Seed: 1})
	labels, err := m.VertexPartition(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range labels {
		if l != 0 {
			t.Fatal("p=1 should label everything 0")
		}
	}
	// p > n still works.
	small := randomGraph(17, 5, 4)
	if _, err := m.VertexPartition(small, 10); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionEdgeComplete(t *testing.T) {
	g := randomGraph(19, 400, 1200)
	m := New(Config{Seed: 21})
	a, err := m.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Edge loads are balanced greedily, not strictly; allow 2x slack.
	if err := partition.Validate(g, a, partition.ValidateOptions{CapacitySlack: 2.0}); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	rf, err := partition.ReplicationFactor(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if rf < 1 || rf > 8 {
		t.Fatalf("RF %v out of range", rf)
	}
}

func TestMetisDeterministic(t *testing.T) {
	g := randomGraph(23, 200, 600)
	m := New(Config{Seed: 25})
	a1, err := m.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := m.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < g.NumEdges(); id++ {
		k1, _ := a1.PartitionOf(graph.EdgeID(id))
		k2, _ := a2.PartitionOf(graph.EdgeID(id))
		if k1 != k2 {
			t.Fatal("METIS not deterministic for fixed seed")
		}
	}
}

// TestMetisBeatsRandomOnCommunities: the multilevel scheme must find planted
// structure that random assignment misses.
func TestMetisBeatsRandomOnCommunities(t *testing.T) {
	g := gen.PlantedCommunities(gen.CommunityConfig{
		Vertices: 600, Communities: 8, TargetEdges: 6000, IntraFraction: 0.85,
	}, rng.New(27))
	p := 8
	a, err := New(Config{Seed: 29}).Partition(g, p)
	if err != nil {
		t.Fatal(err)
	}
	rfMetis, err := partition.ReplicationFactor(g, a)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(31)
	ar := partition.MustNew(g.NumEdges(), p)
	for id := 0; id < g.NumEdges(); id++ {
		ar.Assign(graph.EdgeID(id), r.Intn(p))
	}
	rfRand, err := partition.ReplicationFactor(g, ar)
	if err != nil {
		t.Fatal(err)
	}
	if rfMetis >= rfRand {
		t.Fatalf("METIS RF %.3f not below random %.3f", rfMetis, rfRand)
	}
}

func TestDeriveEdgePartition(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 0, V: 3}})
	src := source.FromGraph(g, source.OrderNatural, 0)
	labels := []int32{0, 0, 1, 1}
	a, err := DeriveEdgePartition(src, labels, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Edge (0,1) must be in part 0; edge (2,3) in part 1.
	if id, _ := g.FindEdge(0, 1); mustPart(t, a, id) != 0 {
		t.Fatal("intra-part edge placed in wrong part")
	}
	if id, _ := g.FindEdge(2, 3); mustPart(t, a, id) != 1 {
		t.Fatal("intra-part edge placed in wrong part")
	}
	// Errors.
	if _, err := DeriveEdgePartition(src, []int32{0}, 2); err == nil {
		t.Fatal("short labels accepted")
	}
	// The first edge touching vertex 2 is the one the error names.
	first, _ := g.FindEdge(1, 2)
	_, err = DeriveEdgePartition(src, []int32{0, 0, 9, 0}, 2)
	if err == nil || !strings.HasSuffix(err.Error(), fmt.Sprintf("edge %d", first)) {
		t.Fatalf("out-of-range label: got %v, want an error naming edge %d", err, first)
	}
	boom := errors.New("boom")
	if _, err := DeriveEdgePartition(failingSource{src, boom}, labels, 2); !errors.Is(err, boom) {
		t.Fatalf("source error not passed up: %v", err)
	}
}

// failingSource wraps a source whose Next fails with err.
type failingSource struct {
	source.EdgeSource
	err error
}

func (s failingSource) Next() (source.Edge, bool, error) { return source.Edge{}, false, s.err }

func mustPart(t *testing.T, a *partition.Assignment, id graph.EdgeID) int {
	t.Helper()
	k, ok := a.PartitionOf(id)
	if !ok {
		t.Fatalf("edge %d unassigned", id)
	}
	return k
}

// Property: every METIS edge partitioning is complete with labels in range.
func TestMetisValidProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 20 + r.Intn(150)
		g := randomGraph(seed, n, r.Intn(3*n))
		p := 2 + r.Intn(6)
		a, err := New(Config{Seed: seed}).Partition(g, p)
		if err != nil {
			return false
		}
		return partition.Validate(g, a, partition.ValidateOptions{CapacitySlack: 3.0}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMetisMedium(b *testing.B) {
	g := gen.ChungLu(gen.ChungLuConfig{Vertices: 10000, TargetEdges: 50000, Exponent: 2.1}, rng.New(33))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(Config{Seed: uint64(i)}).Partition(g, 10); err != nil {
			b.Fatal(err)
		}
	}
}
