package graphpart_test

import (
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	graphpart "github.com/graphpart/graphpart"
)

// buildTestGraph makes a small two-community graph through the public API.
func buildTestGraph(t *testing.T) *graphpart.Graph {
	t.Helper()
	b := graphpart.NewBuilder(10)
	// Clique on 0-4, clique on 5-9, one bridge.
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if err := b.AddEdge(graphpart.Vertex(i), graphpart.Vertex(j)); err != nil {
				t.Fatal(err)
			}
			if err := b.AddEdge(graphpart.Vertex(5+i), graphpart.Vertex(5+j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.AddEdge(0, 5); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	g := buildTestGraph(t)
	tlp := graphpart.NewTLP(graphpart.TLPOptions{Seed: 42})
	a, err := tlp.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphpart.Validate(g, a, graphpart.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	m, err := graphpart.ComputeMetrics(g, a)
	if err != nil {
		t.Fatal(err)
	}
	// The two cliques fit two partitions with only the bridge cut.
	if m.ReplicationFactor > 1.3 {
		t.Fatalf("RF %.3f too high for two cliques", m.ReplicationFactor)
	}
}

func TestPublicAPIEdgeListRoundTrip(t *testing.T) {
	g := buildTestGraph(t)
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := graphpart.SaveEdgeList(path, g); err != nil {
		t.Fatal(err)
	}
	g2, idm, err := graphpart.LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || idm.Len() != g.NumVertices() {
		t.Fatal("round trip changed the graph")
	}
	if _, _, err := graphpart.ReadEdgeList(strings.NewReader("0 1\n1 2\n")); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIAllPartitioners(t *testing.T) {
	g := buildTestGraph(t)
	for name, pt := range graphpart.AllPartitioners(7) {
		a, err := pt.Partition(g, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rf, err := graphpart.ReplicationFactor(g, a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rf < 1 || rf > 2 {
			t.Fatalf("%s RF=%v out of range", name, rf)
		}
		if pt.Name() == "" {
			t.Fatalf("%s has empty Name()", name)
		}
	}
}

func TestPublicAPIDatasets(t *testing.T) {
	ds := graphpart.Datasets()
	if len(ds) != 9 {
		t.Fatalf("%d datasets", len(ds))
	}
	d, err := graphpart.DatasetByNotation("G1")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Generate(1)
	if g.NumVertices() != 1005 || g.NumEdges() != 25571 {
		t.Fatalf("G1 sized %d/%d", g.NumVertices(), g.NumEdges())
	}
	if _, err := graphpart.DatasetByNotation("nope"); err == nil {
		t.Fatal("bad notation accepted")
	}
}

func TestPublicAPIEngine(t *testing.T) {
	g := buildTestGraph(t)
	a, err := graphpart.NewTLP(graphpart.TLPOptions{Seed: 3}).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := graphpart.NewEngine(g, a)
	if err != nil {
		t.Fatal(err)
	}
	values, stats, err := e.Run(graphpart.NewPageRank(g.NumVertices(), 0.85, 1e-10), 50)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	if math.Abs(sum-1) > 0.01 {
		t.Fatalf("PageRank sum %v", sum)
	}
	if stats.Supersteps == 0 {
		t.Fatal("no supersteps ran")
	}
	// SSSP and Components exercise the other programs through the facade.
	if _, _, err := e.Run(graphpart.NewSSSP(0), 50); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Run(graphpart.NewComponents(), 50); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPITLPR(t *testing.T) {
	g := buildTestGraph(t)
	tlpr, err := graphpart.NewTLPR(0.5, graphpart.TLPOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := tlpr.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphpart.Validate(g, a, graphpart.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := graphpart.NewTLPR(2.0, graphpart.TLPOptions{}); err == nil {
		t.Fatal("R=2 accepted")
	}
}

func TestPublicAPIStatsAndCapacity(t *testing.T) {
	g := buildTestGraph(t)
	s := graphpart.ComputeGraphStats(g)
	if s.Vertices != 10 || s.Edges != 21 {
		t.Fatalf("stats %+v", s)
	}
	if c := graphpart.Capacity(21, 2); c != 11 {
		t.Fatalf("capacity %d", c)
	}
	if _, err := graphpart.FromEdges(2, []graphpart.Edge{{U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := graphpart.FromEdges(2, []graphpart.Edge{{U: 0, V: 1}, {U: 1, V: 0}}); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	if _, err := graphpart.NewTLPChecked(graphpart.TLPOptions{CapacitySlack: 0.1}); err == nil {
		t.Fatal("bad slack accepted")
	}
}

func TestPublicAPIRefine(t *testing.T) {
	g := buildTestGraph(t)
	a, err := graphpart.NewRandom(9).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	before, err := graphpart.ReplicationFactor(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := graphpart.Refine(g, a, graphpart.RefineOptions{Capacity: g.NumEdges()}); err != nil {
		t.Fatal(err)
	}
	after, err := graphpart.ReplicationFactor(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if after > before {
		t.Fatalf("refine worsened RF %.3f -> %.3f", before, after)
	}
}

func TestPublicAPISlidingWindowAndKL(t *testing.T) {
	g := buildTestGraph(t)
	for _, pt := range []graphpart.Partitioner{
		graphpart.NewSlidingTLP(graphpart.SlidingWindowConfig{Seed: 5}),
		graphpart.NewFlatKL(graphpart.METISConfig{Seed: 5}),
	} {
		a, err := pt.Partition(g, 2)
		if err != nil {
			t.Fatalf("%s: %v", pt.Name(), err)
		}
		if err := graphpart.Validate(g, a, graphpart.ValidateOptions{CapacitySlack: 2}); err != nil {
			t.Fatalf("%s: %v", pt.Name(), err)
		}
	}
}

// TestPublicAPIPartitionerKeys pins the exact registry key set, including
// the "kl" flat-KL key and the "tlpsw" sliding-window key.
func TestPublicAPIPartitionerKeys(t *testing.T) {
	want := []string{
		"dbh", "fennel", "greedy", "hdrf", "kl",
		"ldg", "metis", "random", "tlp", "tlpsw",
	}
	all := graphpart.AllPartitioners(7)
	got := make([]string, 0, len(all))
	for name := range all {
		got = append(got, name)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("AllPartitioners keys = %v, want %v", got, want)
	}
}

// TestPublicAPIStreaming exercises the EdgeSource layer end to end through
// the facade: graph-, file- and generator-backed sources, the
// StreamPartitioner contract, StreamMetrics and the window stats.
func TestPublicAPIStreaming(t *testing.T) {
	g := buildTestGraph(t)

	// Graph-backed source through a streaming edge partitioner must match
	// the legacy Partition path byte for byte.
	var sp graphpart.StreamPartitioner = graphpart.NewHDRF(3, graphpart.OrderShuffled).(graphpart.StreamPartitioner)
	legacy, err := graphpart.NewHDRF(3, graphpart.OrderShuffled).Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := sp.PartitionStream(graphpart.NewGraphSource(g, graphpart.OrderShuffled, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < g.NumEdges(); id++ {
		ka, _ := legacy.PartitionOf(graphpart.EdgeID(id))
		kb, _ := streamed.PartitionOf(graphpart.EdgeID(id))
		if ka != kb {
			t.Fatalf("edge %d: legacy %d vs streamed %d", id, ka, kb)
		}
	}

	// StreamMetrics over the source must agree with ComputeMetrics.
	sm, err := graphpart.StreamMetrics(graphpart.NewGraphSource(g, graphpart.OrderNatural, 0), streamed)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := graphpart.ComputeMetrics(g, streamed)
	if err != nil {
		t.Fatal(err)
	}
	if sm.ReplicationFactor != cm.ReplicationFactor {
		t.Fatalf("stream RF %v != compute RF %v", sm.ReplicationFactor, cm.ReplicationFactor)
	}

	// File-backed: partition straight from disk, no CSR.
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := graphpart.SaveEdgeList(path, g); err != nil {
		t.Fatal(err)
	}
	fsrc, err := graphpart.OpenEdgeListSource(path, graphpart.FileSourceConfig{DenseIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fsrc.Close() }()
	if fsrc.NumEdges() != g.NumEdges() || fsrc.NumVertices() != g.NumVertices() {
		t.Fatalf("file source counts %d/%d, want %d/%d",
			fsrc.NumVertices(), fsrc.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	sw := graphpart.NewSlidingTLP(graphpart.SlidingWindowConfig{Seed: 1, WindowEdges: 8})
	a, stats, err := sw.PartitionStreamStats(fsrc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.AssignedCount() != g.NumEdges() {
		t.Fatalf("%d of %d edges assigned", a.AssignedCount(), g.NumEdges())
	}
	if stats.StreamedEdges != g.NumEdges() || stats.PeakWindowEdges <= 0 {
		t.Fatalf("implausible window stats %+v", stats)
	}

	// Generator-backed: counts known before generation; stream partitions.
	d, err := graphpart.DatasetByNotation("G1")
	if err != nil {
		t.Fatal(err)
	}
	gsrc := graphpart.NewDatasetSource(d, 5)
	if gsrc.NumEdges() != d.Edges || gsrc.NumVertices() != d.Vertices {
		t.Fatalf("dataset source counts %d/%d, want %d/%d",
			gsrc.NumVertices(), gsrc.NumEdges(), d.Vertices, d.Edges)
	}
	ra, err := graphpart.NewRandom(5).(graphpart.StreamPartitioner).PartitionStream(gsrc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ra.AssignedCount() != d.Edges {
		t.Fatalf("%d of %d dataset edges assigned", ra.AssignedCount(), d.Edges)
	}
}
