package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
)

// randomGraph builds a connected-ish random test graph.
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

func completeAndBalanced(t *testing.T, g *graph.Graph, a *partition.Assignment, slack float64) {
	t.Helper()
	if err := partition.Validate(g, a, partition.ValidateOptions{CapacitySlack: slack}); err != nil {
		t.Fatalf("invalid partitioning: %v", err)
	}
}

func TestTLPBasicComplete(t *testing.T) {
	g := randomGraph(1, 200, 600)
	tlp := MustNew(Options{Seed: 7})
	a, err := tlp.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	completeAndBalanced(t, g, a, 0)
	rf, err := partition.ReplicationFactor(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if rf < 1 || rf > 4 {
		t.Fatalf("RF %v out of bounds", rf)
	}
}

func TestTLPDeterministic(t *testing.T) {
	g := randomGraph(2, 150, 400)
	tlp := MustNew(Options{Seed: 99})
	a1, err := tlp.Partition(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := tlp.Partition(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < g.NumEdges(); id++ {
		k1, _ := a1.PartitionOf(graph.EdgeID(id))
		k2, _ := a2.PartitionOf(graph.EdgeID(id))
		if k1 != k2 {
			t.Fatalf("edge %d: %d vs %d — run not deterministic", id, k1, k2)
		}
	}
}

func TestTLPSeedSensitivity(t *testing.T) {
	g := randomGraph(3, 150, 400)
	a1, err := MustNew(Options{Seed: 1}).Partition(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := MustNew(Options{Seed: 2}).Partition(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for id := 0; id < g.NumEdges(); id++ {
		k1, _ := a1.PartitionOf(graph.EdgeID(id))
		k2, _ := a2.PartitionOf(graph.EdgeID(id))
		if k1 != k2 {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical assignments (suspicious)")
	}
}

func TestTLPTrivialCases(t *testing.T) {
	// Empty graph.
	g := graph.NewBuilder(0).Build()
	a, err := MustNew(Options{}).Partition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != 0 {
		t.Fatal("empty graph should give empty assignment")
	}
	// Single edge.
	g = graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1}})
	a, err = MustNew(Options{}).Partition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	completeAndBalanced(t, g, a, 0)
	// p = 1: everything in partition 0, RF exactly (active vertices)/n.
	g = randomGraph(4, 50, 100)
	a, err = MustNew(Options{Seed: 5}).Partition(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	completeAndBalanced(t, g, a, 0)
	rf, err := partition.ReplicationFactor(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if rf > 1 {
		t.Fatalf("p=1 RF %v, want <= 1", rf)
	}
}

func TestTLPRejectsBadInput(t *testing.T) {
	g := randomGraph(5, 10, 10)
	if _, err := MustNew(Options{}).Partition(g, 0); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := MustNew(Options{}).Partition(nil, 2); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := New(Options{CapacitySlack: 0.5}); err == nil {
		t.Fatal("slack < 1 accepted")
	}
	for _, slack := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := New(Options{CapacitySlack: slack}); err == nil {
			t.Fatalf("slack %v accepted", slack)
		}
		if _, err := NewTLPR(0.5, Options{CapacitySlack: slack}); err == nil {
			t.Fatalf("TLP_R slack %v accepted", slack)
		}
	}
}

func TestTLPDisconnectedReseeds(t *testing.T) {
	// 20 disjoint triangles, p=2: each round must reseed many times.
	b := graph.NewBuilder(60)
	for i := 0; i < 20; i++ {
		v := graph.Vertex(3 * i)
		_ = b.AddEdge(v, v+1)
		_ = b.AddEdge(v+1, v+2)
		_ = b.AddEdge(v, v+2)
	}
	g := b.Build()
	tlp := MustNew(Options{Seed: 11})
	a, stats, err := tlp.PartitionStats(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	completeAndBalanced(t, g, a, 0)
	if stats.Reseeds == 0 {
		t.Fatal("disconnected graph should trigger reseeds")
	}
	// Perfect partitioning possible: RF should be exactly 1 (whole
	// triangles fit; capacity 30 divisible by 3).
	rf, err := partition.ReplicationFactor(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if rf != 1 {
		t.Logf("disconnected triangles RF=%v (1.0 is ideal)", rf)
	}
}

func TestTLPLiteralBreakStillComplete(t *testing.T) {
	b := graph.NewBuilder(30)
	for i := 0; i < 10; i++ {
		v := graph.Vertex(3 * i)
		_ = b.AddEdge(v, v+1)
		_ = b.AddEdge(v+1, v+2)
		_ = b.AddEdge(v, v+2)
	}
	g := b.Build()
	tlp := MustNew(Options{Seed: 3, LiteralBreak: true})
	a, stats, err := tlp.PartitionStats(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reseeds != 0 {
		t.Fatal("LiteralBreak must not reseed")
	}
	// The sweep must have completed the assignment.
	if err := partition.Validate(g, a, partition.ValidateOptions{}); err != nil {
		t.Fatalf("literal-break result invalid: %v", err)
	}
	if stats.SweptEdges == 0 {
		t.Log("no swept edges (rounds covered everything); acceptable but unusual for 10 components over 3 partitions")
	}
}

func TestTLPCapacityRespected(t *testing.T) {
	g := randomGraph(6, 300, 900)
	for _, p := range []int{2, 3, 7, 10} {
		a, err := MustNew(Options{Seed: 13}).Partition(g, p)
		if err != nil {
			t.Fatal(err)
		}
		capC := partition.Capacity(g.NumEdges(), p)
		for k := 0; k < p; k++ {
			if a.Load(k) > capC {
				t.Fatalf("p=%d partition %d load %d > C=%d", p, k, a.Load(k), capC)
			}
		}
	}
}

func TestTLPCapacitySlack(t *testing.T) {
	g := randomGraph(7, 200, 500)
	tlp := MustNew(Options{Seed: 17, CapacitySlack: 1.5})
	a, err := tlp.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	completeAndBalanced(t, g, a, 1.5)
}

func TestTLPStatsConsistency(t *testing.T) {
	g := randomGraph(8, 250, 800)
	tlp := MustNew(Options{Seed: 19})
	_, stats, err := tlp.PartitionStats(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds == 0 {
		t.Fatal("no rounds recorded")
	}
	if stats.Stage1Selections+stats.Stage2Selections == 0 {
		t.Fatal("no selections recorded")
	}
	if stats.Stage1DegreeSum < int64(stats.Stage1Selections) {
		t.Fatal("stage-1 degree sum below selection count (degrees are >= 1)")
	}
	if stats.AvgDegreeStage1() < 0 || stats.AvgDegreeStage2() < 0 {
		t.Fatal("negative average degree")
	}
}

// TestTableVIShape reproduces the qualitative finding of Table VI: on a
// power-law graph, Stage I selects much higher-degree vertices than Stage II.
func TestTableVIShape(t *testing.T) {
	g := gen.ChungLu(gen.ChungLuConfig{Vertices: 3000, TargetEdges: 15000, Exponent: 2.1}, rng.New(23))
	tlp := MustNew(Options{Seed: 29})
	_, stats, err := tlp.PartitionStats(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stage1Selections == 0 || stats.Stage2Selections == 0 {
		t.Skipf("degenerate stage split: %d/%d", stats.Stage1Selections, stats.Stage2Selections)
	}
	d1, d2 := stats.AvgDegreeStage1(), stats.AvgDegreeStage2()
	if d1 <= d2 {
		t.Fatalf("stage I avg degree %.2f not above stage II %.2f (Table VI shape)", d1, d2)
	}
}

func TestTLPRBounds(t *testing.T) {
	if _, err := NewTLPR(-0.1, Options{}); err == nil {
		t.Fatal("R=-0.1 accepted")
	}
	if _, err := NewTLPR(1.1, Options{}); err == nil {
		t.Fatal("R=1.1 accepted")
	}
	if _, err := NewTLPR(math.NaN(), Options{}); err == nil {
		t.Fatal("R=NaN accepted")
	}
	for _, r := range []float64{0, 0.5, 1} {
		tl, err := NewTLPR(r, Options{})
		if err != nil {
			t.Fatalf("R=%v rejected: %v", r, err)
		}
		if tl.R() != r {
			t.Fatalf("R() = %v, want %v", tl.R(), r)
		}
		if tl.Name() == "" {
			t.Fatal("empty name")
		}
	}
}

func TestTLPRPureStages(t *testing.T) {
	g := randomGraph(9, 300, 900)
	// R=0: never stage I.
	_, stats, err := MustNewTLPR(0, Options{Seed: 31}).PartitionStats(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stage1Selections != 0 {
		t.Fatalf("R=0 made %d stage-I selections", stats.Stage1Selections)
	}
	// R=1: never stage II.
	_, stats, err = MustNewTLPR(1, Options{Seed: 31}).PartitionStats(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stage2Selections != 0 {
		t.Fatalf("R=1 made %d stage-II selections", stats.Stage2Selections)
	}
}

func TestTLPRComplete(t *testing.T) {
	g := randomGraph(10, 200, 600)
	for _, r := range []float64{0, 0.3, 0.7, 1} {
		a, err := MustNewTLPR(r, Options{Seed: 37}).Partition(g, 5)
		if err != nil {
			t.Fatalf("R=%v: %v", r, err)
		}
		completeAndBalanced(t, g, a, 0)
	}
}

// TestStage2BucketsMatchBruteForce verifies that the bucketed Stage-II
// selection achieves exactly the same score as a brute-force scan of the
// published formula, at every step, across random graphs.
func TestStage2BucketsMatchBruteForce(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := randomGraph(seed+100, 80, 240)
		mismatches, err := runLocalInstrumentedStage2Check(g, 4, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if mismatches != 0 {
			t.Fatalf("seed %d: %d stage-II selections diverged from brute force", seed, mismatches)
		}
	}
}

// TestStage1ExactMatchesBruteForce checks every stage-I pick of a
// Stage1Exact run against a from-scratch Eq. 7 argmax over the CSR.
func TestStage1ExactMatchesBruteForce(t *testing.T) {
	graphs := map[string]*graph.Graph{}
	for _, seed := range []uint64{1, 7, 42} {
		graphs[fmt.Sprintf("hubby-%d", seed)] = hubbyGraph(seed, 600)
	}
	for _, d := range gen.SmallDatasets() {
		if d.Notation == "G1s" {
			graphs["G1s"] = d.Generate(42)
		}
	}
	if len(graphs) != 4 {
		t.Fatalf("found %d of 4 graphs", len(graphs))
	}
	for name, g := range graphs {
		picks, mismatches, err := runLocalInstrumentedStage1ExactCheck(g, 4, Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if picks == 0 || mismatches != 0 {
			t.Fatalf("%s: %d of %d stage-I picks diverged from brute force", name, mismatches, picks)
		}
		t.Logf("%s: %d stage-I picks", name, picks)
	}
}

// TestIncrementalInvariants verifies the incrementally-maintained ein, eout
// and cin counters against from-scratch recomputation after every step.
func TestIncrementalInvariants(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := randomGraph(seed+200, 60, 180)
		bad, err := runLocalInvariantCheck(g, 3, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if bad != 0 {
			t.Fatalf("seed %d: %d steps with broken invariants", seed, bad)
		}
	}
}

// muS2 is the paper's Eq. 9 value for a candidate, given the current
// partition state: the reference the TestMuS2* tests hold mPrime's order to.
// selectStage2 ranks by M' instead (DESIGN.md §1, deviation 8), and the two
// orders agree only where 1+ΔM > 0.
func muS2(ein, eout, cin, cout int64) float64 {
	if eout <= 0 {
		// M undefined (no external edges): absorbing anything can only
		// help; treat the gain as maximal.
		return 1
	}
	mAfter := mPrime(ein, eout, cin, cout)
	if math.IsInf(mAfter, 1) {
		return 1
	}
	deltaM := mAfter - float64(ein)/float64(eout)
	return 1 - 1/(1+deltaM)
}

func TestMuS2MonotoneInMPrime(t *testing.T) {
	// The implementation orders candidates by M' rather than mu_s2; check
	// the two orderings agree whenever 1+ΔM > 0 (the domain where the
	// paper's formula is monotone).
	r := rng.New(41)
	for i := 0; i < 2000; i++ {
		ein := int64(r.Intn(100))
		eout := int64(1 + r.Intn(100))
		cin1, cout1 := int64(1+r.Intn(20)), int64(r.Intn(50))
		cin2, cout2 := int64(1+r.Intn(20)), int64(r.Intn(50))
		m1, m2 := mPrime(ein, eout, cin1, cout1), mPrime(ein, eout, cin2, cout2)
		mu1, mu2 := muS2(ein, eout, cin1, cout1), muS2(ein, eout, cin2, cout2)
		base := float64(ein) / float64(eout)
		if m1-base <= -1 || m2-base <= -1 {
			continue // outside the monotone domain
		}
		if (m1 > m2 && mu1 < mu2-1e-12) || (m2 > m1 && mu2 < mu1-1e-12) {
			t.Fatalf("ordering mismatch: M'=%v,%v mu=%v,%v", m1, m2, mu1, mu2)
		}
	}
}

func TestMuS2Extremes(t *testing.T) {
	if muS2(5, 0, 1, 1) != 1 {
		t.Fatal("eout=0 should give maximal mu_s2")
	}
	if muS2(5, 5, 5, 0) != 1 {
		t.Fatal("removing all external edges should give maximal mu_s2")
	}
	// Zero gain: M' = (4+1)/(4-1+2) = 1 = M -> deltaM = 0 -> mu = 0.
	if mu := muS2(4, 4, 1, 2); math.Abs(mu) > 1e-12 {
		t.Fatalf("neutral absorption mu = %v, want 0", mu)
	}
}

// Property: TLP always yields a complete, capacity-respecting partitioning
// for arbitrary random graphs and partition counts.
func TestTLPValidProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 10 + r.Intn(120)
		g := randomGraph(seed, n, r.Intn(4*n))
		p := 1 + r.Intn(8)
		a, err := MustNew(Options{Seed: seed}).Partition(g, p)
		if err != nil {
			return false
		}
		return partition.Validate(g, a, partition.ValidateOptions{}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: TLP_R valid for random R.
func TestTLPRValidProperty(t *testing.T) {
	f := func(seed uint64, rraw uint8) bool {
		rr := float64(rraw%11) / 10
		r := rng.New(seed)
		n := 10 + r.Intn(100)
		g := randomGraph(seed, n, r.Intn(3*n))
		p := 1 + r.Intn(6)
		a, err := MustNewTLPR(rr, Options{Seed: seed}).Partition(g, p)
		if err != nil {
			return false
		}
		return partition.Validate(g, a, partition.ValidateOptions{}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStage1ExactMatchesQuality(t *testing.T) {
	// Exact and cached stage-I evaluation may pick different vertices,
	// but both must produce valid partitionings with comparable RF.
	g := gen.ChungLu(gen.ChungLuConfig{Vertices: 1000, TargetEdges: 5000, Exponent: 2.1}, rng.New(43))
	aCached, err := MustNew(Options{Seed: 47}).Partition(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	aExact, err := MustNew(Options{Seed: 47, Stage1Exact: true}).Partition(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	rfCached, err := partition.ReplicationFactor(g, aCached)
	if err != nil {
		t.Fatal(err)
	}
	rfExact, err := partition.ReplicationFactor(g, aExact)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rfCached-rfExact) > 0.5*rfExact {
		t.Fatalf("cached RF %.3f wildly differs from exact RF %.3f", rfCached, rfExact)
	}
}

// TestTLPBeatsRandomRF: the headline claim in miniature — TLP's RF should be
// clearly better than random edge assignment on a community-structured graph.
func TestTLPBeatsRandomRF(t *testing.T) {
	g := gen.PlantedCommunities(gen.CommunityConfig{
		Vertices: 800, Communities: 16, TargetEdges: 8000, IntraFraction: 0.8,
	}, rng.New(57))
	p := 8
	a, err := MustNew(Options{Seed: 61}).Partition(g, p)
	if err != nil {
		t.Fatal(err)
	}
	rfTLP, err := partition.ReplicationFactor(g, a)
	if err != nil {
		t.Fatal(err)
	}
	// Random baseline.
	rand := rng.New(63)
	ar := partition.MustNew(g.NumEdges(), p)
	for id := 0; id < g.NumEdges(); id++ {
		ar.Assign(graph.EdgeID(id), rand.Intn(p))
	}
	rfRand, err := partition.ReplicationFactor(g, ar)
	if err != nil {
		t.Fatal(err)
	}
	if rfTLP >= rfRand {
		t.Fatalf("TLP RF %.3f not below random RF %.3f", rfTLP, rfRand)
	}
	if rfTLP > 0.7*rfRand {
		t.Logf("TLP RF %.3f vs random %.3f — less improvement than expected", rfTLP, rfRand)
	}
}

func BenchmarkTLPMedium(b *testing.B) {
	g := gen.ChungLu(gen.ChungLuConfig{Vertices: 10000, TargetEdges: 50000, Exponent: 2.1}, rng.New(71))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MustNew(Options{Seed: uint64(i)}).Partition(g, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTLPRMedium(b *testing.B) {
	g := gen.ChungLu(gen.ChungLuConfig{Vertices: 10000, TargetEdges: 50000, Exponent: 2.1}, rng.New(73))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MustNewTLPR(0.5, Options{Seed: uint64(i)}).Partition(g, 10); err != nil {
			b.Fatal(err)
		}
	}
}
