package gen

import (
	"testing"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/rng"
)

func TestPLCBasic(t *testing.T) {
	cfg := PowerLawCommunityConfig{
		Vertices: 3000, TargetEdges: 15000, Exponent: 2.1, IntraFraction: 0.55,
	}
	g := PowerLawCommunities(cfg, rng.New(1))
	if g.NumVertices() != 3000 {
		t.Fatalf("V=%d", g.NumVertices())
	}
	if m := g.NumEdges(); m < 14000 || m > 15000 {
		t.Fatalf("E=%d too far from 15000", m)
	}
}

func TestPLCDegenerate(t *testing.T) {
	if g := PowerLawCommunities(PowerLawCommunityConfig{Vertices: 1, TargetEdges: 5}, rng.New(1)); g.NumEdges() != 0 {
		t.Fatal("single vertex produced edges")
	}
	if g := PowerLawCommunities(PowerLawCommunityConfig{Vertices: 100, TargetEdges: 0}, rng.New(1)); g.NumEdges() != 0 {
		t.Fatal("zero target produced edges")
	}
}

func TestPLCDeterministic(t *testing.T) {
	cfg := PowerLawCommunityConfig{Vertices: 500, TargetEdges: 3000, Exponent: 2.0}
	g1 := PowerLawCommunities(cfg, rng.New(7))
	g2 := PowerLawCommunities(cfg, rng.New(7))
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatal("not deterministic")
	}
	for i := 0; i < g1.NumEdges(); i++ {
		if g1.Edge(graph.EdgeID(i)) != g2.Edge(graph.EdgeID(i)) {
			t.Fatal("edge sets differ for same seed")
		}
	}
}

func TestPLCHasPowerLawTail(t *testing.T) {
	g := PowerLawCommunities(PowerLawCommunityConfig{
		Vertices: 5000, TargetEdges: 25000, Exponent: 2.1, IntraFraction: 0.55,
	}, rng.New(3))
	s := graph.ComputeStats(g)
	if s.DegreeGini < 0.3 {
		t.Fatalf("degree gini %.2f too uniform for a power law", s.DegreeGini)
	}
	if s.MaxDegree < 30 {
		t.Fatalf("max degree %d, expected hubs", s.MaxDegree)
	}
}

func TestPLCCommunitiesConcentrateEdges(t *testing.T) {
	// The whole point of the hybrid: with the same degree-weighted edge
	// sampling, turning the intra fraction on concentrates wedges inside
	// communities. Compare against the same generator with IntraFraction
	// driven to a tiny value (near-pure Chung-Lu sampling) — the global
	// coefficient of pure Chung-Lu is confounded by its dense hub core, so
	// comparing within one code path isolates the community effect.
	at := func(frac float64) float64 {
		g := PowerLawCommunities(PowerLawCommunityConfig{
			Vertices: 3000, TargetEdges: 15000, Exponent: 2.1,
			Communities: 30, IntraFraction: frac,
		}, rng.New(5))
		return GlobalClusteringCoefficient(g)
	}
	withComms, without := at(0.55), at(0.01)
	if withComms <= without {
		t.Fatalf("communities did not raise clustering: %.4f vs %.4f", withComms, without)
	}
}

func TestPLCIntraFractionMatters(t *testing.T) {
	// Higher intra fraction => higher clustering, all else equal.
	at := func(frac float64) float64 {
		g := PowerLawCommunities(PowerLawCommunityConfig{
			Vertices: 2000, TargetEdges: 10000, Exponent: 2.1, IntraFraction: frac,
		}, rng.New(9))
		return GlobalClusteringCoefficient(g)
	}
	lo, hi := at(0.2), at(0.8)
	if hi <= lo {
		t.Fatalf("intra 0.8 clustering %.4f not above intra 0.2 %.4f", hi, lo)
	}
}
