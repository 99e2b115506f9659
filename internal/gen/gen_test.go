package gen

import (
	"testing"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/rng"
)

func TestChungLuBasic(t *testing.T) {
	r := rng.New(1)
	cfg := ChungLuConfig{Vertices: 2000, TargetEdges: 10000, Exponent: 2.2}
	g := ChungLu(cfg, r)
	if g.NumVertices() != 2000 {
		t.Fatalf("V=%d", g.NumVertices())
	}
	// Realised edge count should be within 20% of target.
	if m := g.NumEdges(); m < 8000 || m > 12000 {
		t.Fatalf("edge count %d too far from target 10000", m)
	}
}

func TestChungLuDeterministic(t *testing.T) {
	cfg := ChungLuConfig{Vertices: 500, TargetEdges: 2000, Exponent: 2.0}
	g1 := ChungLu(cfg, rng.New(7))
	g2 := ChungLu(cfg, rng.New(7))
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatal("ChungLu not deterministic")
	}
	for i := 0; i < g1.NumEdges(); i++ {
		if g1.Edge(graph.EdgeID(i)) != g2.Edge(graph.EdgeID(i)) {
			t.Fatal("ChungLu edge sets differ for same seed")
		}
	}
}

func TestChungLuSkewedDegrees(t *testing.T) {
	g := ChungLu(ChungLuConfig{Vertices: 5000, TargetEdges: 25000, Exponent: 2.1}, rng.New(3))
	s := graph.ComputeStats(g)
	if s.DegreeGini < 0.3 {
		t.Fatalf("power-law graph should be skewed, gini=%.2f", s.DegreeGini)
	}
	if s.MaxDegree < 20 {
		t.Fatalf("expected a heavy tail, max degree %d", s.MaxDegree)
	}
}

func TestChungLuDegenerate(t *testing.T) {
	if g := ChungLu(ChungLuConfig{Vertices: 0, TargetEdges: 10}, rng.New(1)); g.NumVertices() != 0 {
		t.Fatal("empty config should give empty graph")
	}
	if g := ChungLu(ChungLuConfig{Vertices: 5, TargetEdges: 0}, rng.New(1)); g.NumEdges() != 0 {
		t.Fatal("zero target edges should give edgeless graph")
	}
	if g := ChungLu(ChungLuConfig{Vertices: 1, TargetEdges: 5}, rng.New(1)); g.NumEdges() != 0 {
		t.Fatal("single vertex cannot have edges")
	}
}

func TestErdosRenyiExactCount(t *testing.T) {
	g := ErdosRenyi(100, 500, rng.New(5))
	if g.NumEdges() != 500 {
		t.Fatalf("G(n,m) produced %d edges, want 500", g.NumEdges())
	}
}

func TestErdosRenyiSaturates(t *testing.T) {
	// Request more edges than possible: complete graph.
	g := ErdosRenyi(5, 100, rng.New(5))
	if g.NumEdges() != 10 {
		t.Fatalf("overfull G(5,100) gave %d edges, want 10 (K5)", g.NumEdges())
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(1000, 3, rng.New(2))
	if g.NumVertices() != 1000 {
		t.Fatalf("V=%d", g.NumVertices())
	}
	// Roughly 3 edges per vertex after the seed clique.
	if m := g.NumEdges(); m < 2500 || m > 3100 {
		t.Fatalf("BA edges %d outside expected range", m)
	}
	// Preferential attachment must create hubs.
	if g.MaxDegree() < 20 {
		t.Fatalf("BA max degree %d, expected hubs", g.MaxDegree())
	}
	// BA graphs are connected by construction.
	_, count := graph.ConnectedComponents(g)
	if count != 1 {
		t.Fatalf("BA graph has %d components, want 1", count)
	}
}

func TestBarabasiAlbertSmall(t *testing.T) {
	if g := BarabasiAlbert(0, 2, rng.New(1)); g.NumVertices() != 0 {
		t.Fatal("BA(0) should be empty")
	}
	if g := BarabasiAlbert(1, 2, rng.New(1)); g.NumEdges() != 0 {
		t.Fatal("BA(1) should be edgeless")
	}
	g := BarabasiAlbert(10, 100, rng.New(1))
	if g.NumVertices() != 10 {
		t.Fatal("BA with huge m should still work")
	}
}

func TestRMAT(t *testing.T) {
	g := RMAT(RMATConfig{ScaleLog2: 10, Edges: 8000}, rng.New(4))
	if g.NumVertices() != 1024 {
		t.Fatalf("V=%d, want 1024", g.NumVertices())
	}
	if g.NumEdges() == 0 || g.NumEdges() > 8000 {
		t.Fatalf("RMAT edges %d", g.NumEdges())
	}
	s := graph.ComputeStats(g)
	if s.DegreeGini < 0.2 {
		t.Fatalf("RMAT should be skewed, gini %.2f", s.DegreeGini)
	}
}

func TestWattsStrogatz(t *testing.T) {
	g := WattsStrogatz(500, 6, 0.1, rng.New(6))
	if g.NumVertices() != 500 {
		t.Fatalf("V=%d", g.NumVertices())
	}
	// Ring lattice with k=6 has ~3n edges, rewiring only collapses a few.
	if m := g.NumEdges(); m < 1400 || m > 1500 {
		t.Fatalf("WS edges %d, want ~1500", m)
	}
	// Low beta keeps high clustering.
	if c := GlobalClusteringCoefficient(g); c < 0.3 {
		t.Fatalf("WS clustering %.2f, want high", c)
	}
	if g := WattsStrogatz(2, 2, 0.5, rng.New(1)); g.NumEdges() != 0 {
		t.Fatal("degenerate WS should be edgeless")
	}
}

func TestPlantedCommunitiesStructure(t *testing.T) {
	cfg := CommunityConfig{Vertices: 600, Communities: 10, TargetEdges: 6000, IntraFraction: 0.8}
	g := PlantedCommunities(cfg, rng.New(8))
	if g.NumVertices() != 600 {
		t.Fatalf("V=%d", g.NumVertices())
	}
	if m := g.NumEdges(); m < 5000 {
		t.Fatalf("community graph badly undershot edges: %d", m)
	}
	// Community graphs should have much higher clustering than a random
	// graph of the same density.
	er := ErdosRenyi(600, g.NumEdges(), rng.New(8))
	cg := GlobalClusteringCoefficient(g)
	ce := GlobalClusteringCoefficient(er)
	if cg < 2*ce {
		t.Fatalf("planted communities clustering %.3f not above random %.3f", cg, ce)
	}
}

func TestCollaborationStructure(t *testing.T) {
	cfg := CollabConfig{Authors: 1200, TargetEdges: 12000, MeanAuthorsPerPaper: 4.5, ProlificExponent: 0.75}
	g := Collaboration(cfg, rng.New(9))
	if g.NumVertices() != 1200 {
		t.Fatalf("V=%d", g.NumVertices())
	}
	if m := g.NumEdges(); m < 11000 {
		t.Fatalf("collab graph undershot: %d", m)
	}
	// Clique unions imply clustering far above a random graph of equal
	// density (prolific-author overlap dilutes it below a pure clique
	// union, so compare against the ER baseline rather than a constant).
	cg := GlobalClusteringCoefficient(g)
	ce := GlobalClusteringCoefficient(ErdosRenyi(1200, g.NumEdges(), rng.New(9)))
	if cg < 5*ce || cg < 0.05 {
		t.Fatalf("collaboration clustering %.3f not well above random %.3f", cg, ce)
	}
}

func TestGenealogyStructure(t *testing.T) {
	cfg := GenealogyConfig{People: 5000, TargetEdges: 8150, Trees: 40, MaxChildren: 8}
	g := Genealogy(cfg, rng.New(10))
	if g.NumVertices() != 5000 {
		t.Fatalf("V=%d", g.NumVertices())
	}
	if g.NumEdges() != 8150 {
		t.Fatalf("E=%d, want exactly 8150", g.NumEdges())
	}
	// Tree-like: low clustering, large diameter estimate.
	if c := GlobalClusteringCoefficient(g); c > 0.1 {
		t.Fatalf("genealogy clustering %.3f too high for tree-like graph", c)
	}
	// Tree-like structure implies diameters well beyond a dense graph's
	// 2-3, even though patriarch hubs keep generations shallow.
	if d := Diameter2Sweep(g, 0); d < 5 {
		t.Fatalf("genealogy diameter estimate %d, expected long paths", d)
	}
}

func TestAdjustEdgeCountTrim(t *testing.T) {
	g := ErdosRenyi(200, 2000, rng.New(11))
	out := AdjustEdgeCount(g, 1500, rng.New(12))
	if out.NumEdges() != 1500 {
		t.Fatalf("trim gave %d edges", out.NumEdges())
	}
	if out.NumVertices() != 200 {
		t.Fatalf("trim changed vertex count to %d", out.NumVertices())
	}
	// Every kept edge must exist in the original.
	for _, e := range out.Edges() {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("trim invented edge %+v", e)
		}
	}
}

func TestAdjustEdgeCountTopUp(t *testing.T) {
	g := ErdosRenyi(200, 1000, rng.New(13))
	out := AdjustEdgeCount(g, 1400, rng.New(14))
	if out.NumEdges() != 1400 {
		t.Fatalf("top-up gave %d edges", out.NumEdges())
	}
	// Every original edge must survive.
	for _, e := range g.Edges() {
		if !out.HasEdge(e.U, e.V) {
			t.Fatalf("top-up lost edge %+v", e)
		}
	}
}

func TestAdjustEdgeCountNoop(t *testing.T) {
	g := ErdosRenyi(50, 100, rng.New(15))
	if out := AdjustEdgeCount(g, 100, rng.New(16)); out != g {
		t.Fatal("exact count should return the same graph")
	}
	// Infeasible targets are left unchanged.
	if out := AdjustEdgeCount(g, 100000, rng.New(16)); out != g {
		t.Fatal("infeasible target should return the same graph")
	}
	if out := AdjustEdgeCount(g, -1, rng.New(16)); out != g {
		t.Fatal("negative target should return the same graph")
	}
}

func TestDatasetsRegistry(t *testing.T) {
	ds := Datasets()
	if len(ds) != 9 {
		t.Fatalf("registry has %d datasets, want 9", len(ds))
	}
	for i, d := range ds {
		if d.Notation == "" || d.Name == "" || d.Family == "" {
			t.Fatalf("dataset %d metadata incomplete: %+v", i, d)
		}
		if d.Vertices <= 0 || d.Edges <= 0 {
			t.Fatalf("dataset %s has bad sizes", d.Notation)
		}
		if d.String() == "" {
			t.Fatalf("dataset %s empty String()", d.Notation)
		}
	}
	// G1-G8 must match the paper's sizes exactly; G9 is 10% scaled.
	for _, d := range ds[:8] {
		if d.Vertices != d.PaperVertices || d.Edges != d.PaperEdges {
			t.Fatalf("%s sizes %d/%d differ from paper %d/%d",
				d.Notation, d.Vertices, d.Edges, d.PaperVertices, d.PaperEdges)
		}
	}
	if g9 := ds[8]; g9.Vertices != g9.PaperVertices/10 {
		t.Fatalf("G9 should be 10%% scale: %d vs %d", g9.Vertices, g9.PaperVertices)
	}
}

// TestDatasetGenerateSmall generates the two smallest datasets end to end and
// checks exact sizes; the full set is exercised by the experiment harness.
func TestDatasetGenerateSmall(t *testing.T) {
	for _, notation := range []string{"G1", "G2"} {
		d, err := DatasetByNotation(notation)
		if err != nil {
			t.Fatal(err)
		}
		g := d.Generate(42)
		if g.NumVertices() != d.Vertices || g.NumEdges() != d.Edges {
			t.Fatalf("%s: generated %d/%d, want %d/%d",
				notation, g.NumVertices(), g.NumEdges(), d.Vertices, d.Edges)
		}
		// Determinism.
		g2 := d.Generate(42)
		if g2.NumEdges() != g.NumEdges() || g2.Edge(0) != g.Edge(0) {
			t.Fatalf("%s: not deterministic", notation)
		}
	}
}

func TestDatasetByNotationUnknown(t *testing.T) {
	if _, err := DatasetByNotation("G99"); err == nil {
		t.Fatal("unknown notation accepted")
	}
}

func TestSmallDatasets(t *testing.T) {
	ds := SmallDatasets()
	if len(ds) != 9 {
		t.Fatalf("%d small datasets", len(ds))
	}
	for _, d := range ds {
		g := d.Generate(1)
		if g.NumVertices() != d.Vertices || g.NumEdges() != d.Edges {
			t.Fatalf("%s: %d/%d, want %d/%d", d.Notation,
				g.NumVertices(), g.NumEdges(), d.Vertices, d.Edges)
		}
	}
}

func BenchmarkChungLu100k(b *testing.B) {
	cfg := ChungLuConfig{Vertices: 20000, TargetEdges: 100000, Exponent: 2.1}
	for i := 0; i < b.N; i++ {
		ChungLu(cfg, rng.New(uint64(i)))
	}
}

func BenchmarkGenealogy(b *testing.B) {
	cfg := GenealogyConfig{People: 50000, TargetEdges: 81500, Trees: 200, MaxChildren: 8}
	for i := 0; i < b.N; i++ {
		Genealogy(cfg, rng.New(uint64(i)))
	}
}
