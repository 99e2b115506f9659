package window

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"github.com/graphpart/graphpart/internal/core"
	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/obs"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
	"github.com/graphpart/graphpart/internal/source"
	"github.com/graphpart/graphpart/internal/streaming"
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

func TestWindowComplete(t *testing.T) {
	g := randomGraph(1, 300, 900)
	for _, p := range []int{1, 2, 5, 10} {
		a, err := New(Config{Seed: 2}).Partition(g, p)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		// Window rounds can overshoot only via the final sweep; allow a
		// modest slack.
		if err := partition.Validate(g, a, partition.ValidateOptions{CapacitySlack: 1.5}); err != nil {
			t.Fatalf("p=%d invalid: %v", p, err)
		}
	}
}

func TestWindowEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	a, err := New(Config{}).Partition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != 0 {
		t.Fatal("nonempty assignment for empty graph")
	}
	if _, err := New(Config{}).Partition(nil, 2); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestWindowTinyWindow(t *testing.T) {
	// Even a pathologically small window must produce a complete valid
	// assignment (quality degrades, correctness does not).
	g := randomGraph(3, 200, 600)
	a, err := New(Config{Seed: 4, WindowEdges: 20}).Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := partition.Validate(g, a, partition.ValidateOptions{CapacitySlack: 1.5}); err != nil {
		t.Fatalf("tiny window invalid: %v", err)
	}
}

func TestWindowOrders(t *testing.T) {
	g := randomGraph(5, 150, 450)
	for _, ord := range []streaming.Order{streaming.OrderBFS, streaming.OrderShuffled, streaming.OrderNatural} {
		a, err := New(Config{Seed: 6, Order: ord}).Partition(g, 3)
		if err != nil {
			t.Fatalf("order %d: %v", ord, err)
		}
		if err := partition.Validate(g, a, partition.ValidateOptions{CapacitySlack: 1.5}); err != nil {
			t.Fatalf("order %d invalid: %v", ord, err)
		}
	}
}

func TestWindowDisconnected(t *testing.T) {
	b := graph.NewBuilder(30)
	for i := 0; i < 10; i++ {
		v := graph.Vertex(3 * i)
		_ = b.AddEdge(v, v+1)
		_ = b.AddEdge(v+1, v+2)
		_ = b.AddEdge(v, v+2)
	}
	g := b.Build()
	a, err := New(Config{Seed: 7}).Partition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := partition.Validate(g, a, partition.ValidateOptions{CapacitySlack: 1.5}); err != nil {
		t.Fatalf("disconnected invalid: %v", err)
	}
}

// TestWindowQualityBetweenStreamingAndTLP: the design intent — a generous
// window should put TLP-SW's quality between edge-at-a-time streaming
// (DBH) and full TLP on a community-structured graph.
func TestWindowQualityBetweenStreamingAndTLP(t *testing.T) {
	g := gen.PlantedCommunities(gen.CommunityConfig{
		Vertices: 800, Communities: 16, TargetEdges: 8000, IntraFraction: 0.8,
	}, rng.New(8))
	p := 8
	rfOf := func(pt partition.Partitioner) float64 {
		a, err := pt.Partition(g, p)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := partition.ReplicationFactor(g, a)
		if err != nil {
			t.Fatal(err)
		}
		return rf
	}
	rfTLP := rfOf(core.MustNew(core.Options{Seed: 9}))
	rfSW := rfOf(New(Config{Seed: 9}))
	rfDBH := rfOf(streaming.NewDBH(9))
	t.Logf("TLP=%.3f TLP-SW=%.3f DBH=%.3f", rfTLP, rfSW, rfDBH)
	if rfSW >= rfDBH {
		t.Fatalf("sliding window RF %.3f not below DBH %.3f", rfSW, rfDBH)
	}
	if rfSW > 2.0*rfTLP {
		t.Fatalf("sliding window RF %.3f too far above full TLP %.3f", rfSW, rfTLP)
	}
}

// TestWindowWiderIsBetter: growing the window should not hurt quality much;
// typically it helps. Assert the generous window is at least not worse than
// the starved one by a large margin.
func TestWindowWiderIsBetter(t *testing.T) {
	g := gen.PowerLawCommunities(gen.PowerLawCommunityConfig{
		Vertices: 2000, TargetEdges: 16000, Exponent: 2.1, IntraFraction: 0.55,
	}, rng.New(10))
	p := 8
	rfAt := func(window int) float64 {
		a, err := New(Config{Seed: 11, WindowEdges: window}).Partition(g, p)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := partition.ReplicationFactor(g, a)
		if err != nil {
			t.Fatal(err)
		}
		return rf
	}
	narrow := rfAt(200)
	wide := rfAt(4 * partition.Capacity(g.NumEdges(), p))
	t.Logf("narrow window RF=%.3f wide RF=%.3f", narrow, wide)
	if wide > narrow*1.15 {
		t.Fatalf("wide window much worse than narrow: %.3f vs %.3f", wide, narrow)
	}
}

func TestWindowChannelAPIDirect(t *testing.T) {
	g := randomGraph(12, 100, 200)
	stream := make(chan StreamEdge, 16)
	go func() {
		defer close(stream)
		for id, e := range g.Edges() {
			stream <- StreamEdge{ID: graph.EdgeID(id), U: e.U, V: e.V}
		}
	}()
	a, stats, err := New(Config{Seed: 13}).PartitionChannel(stream, g.NumVertices(), g.NumEdges(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := partition.Validate(g, a, partition.ValidateOptions{CapacitySlack: 1.5}); err != nil {
		t.Fatalf("stream API invalid: %v", err)
	}
	if stats.StreamedEdges != g.NumEdges() {
		t.Fatalf("stats counted %d streamed edges, want %d", stats.StreamedEdges, g.NumEdges())
	}
}

func TestWindowRejectsBadP(t *testing.T) {
	stream := make(chan StreamEdge)
	close(stream)
	if _, _, err := New(Config{}).PartitionChannel(stream, 5, 0, 0); err == nil {
		t.Fatal("p=0 accepted")
	}
}

// TestWindowRejectsOutOfRangeEdge: an edge naming a vertex or edge id
// outside the declared counts is reported as an error, not a panic.
func TestWindowRejectsOutOfRangeEdge(t *testing.T) {
	for _, bad := range []StreamEdge{{ID: 1, U: 0, V: 9}, {ID: 1, U: -1, V: 2}, {ID: 7, U: 0, V: 2}} {
		stream := make(chan StreamEdge, 2)
		stream <- StreamEdge{ID: 0, U: 0, V: 1}
		stream <- bad
		close(stream)
		if _, _, err := New(Config{}).PartitionChannel(stream, 5, 2, 2); err == nil {
			t.Fatalf("edge %+v accepted", bad)
		}
	}
}

// TestWindowSourceMatchesGraphPath: Partition and PartitionStream over the
// equivalent graph-backed source must agree byte for byte — the EdgeSource
// rewiring must not change results.
func TestWindowSourceMatchesGraphPath(t *testing.T) {
	g := randomGraph(15, 200, 500)
	for _, ord := range []source.Order{source.OrderBFS, source.OrderShuffled, source.OrderNatural} {
		w := New(Config{Seed: 16, Order: ord})
		a, err := w.Partition(g, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.PartitionStream(source.FromGraph(g, ord, 16), 5)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < g.NumEdges(); id++ {
			ka, _ := a.PartitionOf(graph.EdgeID(id))
			kb, _ := b.PartitionOf(graph.EdgeID(id))
			if ka != kb {
				t.Fatalf("order %d: edge %d placed %d vs %d", ord, id, ka, kb)
			}
		}
	}
}

// TestWindowStats checks the reported stats are consistent with the run:
// every edge streamed, peak bounded by the configured window during growth
// (plus the final drain's remainder), swept edges small.
func TestWindowStats(t *testing.T) {
	g := randomGraph(17, 300, 900)
	const win = 128
	w := New(Config{Seed: 18, WindowEdges: win})
	a, stats, err := w.PartitionStreamStats(source.FromGraph(g, source.OrderBFS, 18), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := partition.Validate(g, a, partition.ValidateOptions{CapacitySlack: 1.5}); err != nil {
		t.Fatal(err)
	}
	if stats.StreamedEdges != g.NumEdges() {
		t.Fatalf("streamed %d edges, want %d", stats.StreamedEdges, g.NumEdges())
	}
	if stats.PeakWindowEdges < 1 || stats.PeakWindowEdges > g.NumEdges() {
		t.Fatalf("implausible peak window %d", stats.PeakWindowEdges)
	}
	if stats.Refills < 1 {
		t.Fatalf("no refills recorded for a %d-edge stream with window %d", g.NumEdges(), win)
	}
	if stats.SweptEdges > g.NumEdges()/2 {
		t.Fatalf("%d of %d edges swept — window growth did almost nothing", stats.SweptEdges, g.NumEdges())
	}
}

// TestWindowGrowthStats: the run reports the growth statistics its rounds
// gathered, and keeping them leaves the placement as it was (the hash was
// taken before the grower kept any statistics).
func TestWindowGrowthStats(t *testing.T) {
	const p = 4
	g := gen.SmallDatasets()[0].Generate(42)
	a, stats, err := New(Config{Seed: 42}).PartitionStreamStats(source.FromGraph(g, source.OrderBFS, 42), p)
	if err != nil {
		t.Fatal(err)
	}
	gs := stats.Growth
	if gs.Rounds < p {
		t.Errorf("%d growth rounds for %d partitions", gs.Rounds, p)
	}
	if gs.Stage1Selections <= 0 || gs.Stage2Selections <= 0 {
		t.Errorf("stage selections I=%d II=%d, want both above 0", gs.Stage1Selections, gs.Stage2Selections)
	}
	h := fnv.New64a()
	for e := 0; e < a.NumEdges(); e++ {
		k, _ := a.PartitionOf(graph.EdgeID(e))
		h.Write([]byte{byte(k), byte(k >> 8), byte(k >> 16), byte(k >> 24)})
	}
	if got, want := h.Sum64(), uint64(0x9d9c02ba6b831fe6); got != want {
		t.Errorf("assignment hash %#016x, want %#016x", got, want)
	}
}

// TestWindowFileSource runs TLP-SW end-to-end from a file-backed source.
func TestWindowFileSource(t *testing.T) {
	g := randomGraph(19, 150, 400)
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := graph.SaveEdgeListFile(path, g); err != nil {
		t.Fatal(err)
	}
	src, err := source.OpenFile(path, source.FileConfig{DenseIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()
	a, stats, err := New(Config{Seed: 20}).PartitionStreamStats(src, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.AssignedCount(); got != g.NumEdges() {
		t.Fatalf("%d of %d edges assigned", got, g.NumEdges())
	}
	if stats.StreamedEdges != g.NumEdges() {
		t.Fatalf("streamed %d, want %d", stats.StreamedEdges, g.NumEdges())
	}
	// A natural-order file stream matches the natural-order graph path.
	b, err := New(Config{Seed: 20, Order: source.OrderNatural}).Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	_ = b // file order is natural; assert equality edge by edge
	for id := 0; id < g.NumEdges(); id++ {
		ka, _ := a.PartitionOf(graph.EdgeID(id))
		kb, _ := b.PartitionOf(graph.EdgeID(id))
		if ka != kb {
			t.Fatalf("edge %d placed %d via file vs %d via graph", id, ka, kb)
		}
	}
}

// Property: TLP-SW always produces a complete assignment for random graphs,
// random window sizes and partition counts.
func TestWindowValidProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 10 + r.Intn(100)
		g := randomGraph(seed, n, r.Intn(3*n))
		p := 1 + r.Intn(6)
		win := 16 + r.Intn(400)
		a, err := New(Config{Seed: seed, WindowEdges: win}).Partition(g, p)
		if err != nil {
			return false
		}
		return partition.Validate(g, a, partition.ValidateOptions{CapacitySlack: 2.0}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWindow(b *testing.B) {
	g := gen.ChungLu(gen.ChungLuConfig{Vertices: 10000, TargetEdges: 50000, Exponent: 2.1}, rng.New(14))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(Config{Seed: uint64(i)}).Partition(g, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// samePlacement fails t unless a and b place every edge in the same
// partition.
func samePlacement(t *testing.T, label string, a, b *partition.Assignment) {
	t.Helper()
	diff := 0
	for id := 0; id < a.NumEdges(); id++ {
		ka, _ := a.PartitionOf(graph.EdgeID(id))
		kb, _ := b.PartitionOf(graph.EdgeID(id))
		if ka != kb {
			diff++
		}
	}
	if diff > 0 {
		t.Errorf("%s: %d of %d edges placed differently from TLP", label, diff, a.NumEdges())
	}
}

// TestWindowFullWindowIsTLP: with the window holding the whole graph, TLP-SW
// grows on one CSR of every edge under a monotone relabel, so it must place
// every edge where TLP does, whatever the stream order.
func TestWindowFullWindowIsTLP(t *testing.T) {
	orders := []source.Order{source.OrderBFS, source.OrderShuffled, source.OrderNatural}
	for _, d := range gen.SmallDatasets()[:4] {
		for _, seed := range []uint64{1, 42} {
			g := d.Generate(seed)
			for _, p := range []int{1, 4, 10} {
				want, err := core.MustNew(core.Options{Seed: seed}).Partition(g, p)
				if err != nil {
					t.Fatal(err)
				}
				for _, ord := range orders {
					got, err := New(Config{Seed: seed, WindowEdges: g.NumEdges(), Order: ord}).Partition(g, p)
					if err != nil {
						t.Fatal(err)
					}
					samePlacement(t, fmt.Sprintf("%s seed=%d p=%d order=%d", d.Notation, seed, p, ord), got, want)
				}
			}
		}
	}
	// Isolated vertices interleaved with the others (every even id) vanish
	// from the window's CSR; the relabel keeps the order of the rest.
	base := randomGraph(21, 300, 900)
	b := graph.NewBuilder(2 * base.NumVertices())
	for _, e := range base.Edges() {
		_ = b.AddEdge(2*e.U+1, 2*e.V+1)
	}
	g := b.Build()
	want, err := core.MustNew(core.Options{Seed: 22}).Partition(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(Config{Seed: 22, WindowEdges: 2 * g.NumEdges()}).Partition(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	samePlacement(t, "isolated vertices", got, want)
}

// TestWindowFileSourceDuplicates streams a file in which every third edge
// repeats, reversed, right after itself. A CSR holds each pair once, so the
// later copies wait in the window for their twin's eviction or fall to the
// sweep; either way every edge is placed within capacity.
func TestWindowFileSourceDuplicates(t *testing.T) {
	g := randomGraph(19, 150, 400)
	var sb strings.Builder
	lines := 0
	for i, e := range g.Edges() {
		fmt.Fprintf(&sb, "%d %d\n", e.U, e.V)
		lines++
		if i%3 == 0 {
			fmt.Fprintf(&sb, "%d %d\n", e.V, e.U)
			lines++
		}
	}
	path := filepath.Join(t.TempDir(), "dup.txt")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := source.OpenFile(path, source.FileConfig{DenseIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()
	const p = 4
	capC := partition.Capacity(lines, p)
	for _, win := range []int{0, 20, 100, lines} {
		a, stats, err := New(Config{Seed: 20, WindowEdges: win}).PartitionStreamStats(src, p)
		if err != nil {
			t.Fatalf("window %d: %v", win, err)
		}
		if got := a.AssignedCount(); got != lines || stats.StreamedEdges != lines {
			t.Fatalf("window %d: %d assigned, %d streamed, want %d", win, got, stats.StreamedEdges, lines)
		}
		if a.MaxLoad() > capC {
			t.Fatalf("window %d: max load %d above capacity %d", win, a.MaxLoad(), capC)
		}
	}
}

// TestWindowTracedRunRecordsRounds: with telemetry on, every growth round
// of TLP-SW records core's tlp.round span and its stage segments under the
// tlpsw.partition trace, and every edge lands where the untraced run put
// it.
func TestWindowTracedRunRecordsRounds(t *testing.T) {
	wasOn := obs.Enabled()
	t.Cleanup(func() {
		if wasOn {
			obs.Enable()
		} else {
			obs.Disable()
		}
		obs.ResetTrace()
	})
	g := gen.SmallDatasets()[0].Generate(3)
	cfg := Config{Seed: 3}
	obs.Disable()
	plain, err := New(cfg).Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	obs.Enable()
	obs.ResetTrace()
	traced, err := New(cfg).Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	recs, dropped := obs.TraceRecords()
	if dropped > 0 {
		t.Fatalf("trace ring dropped %d records", dropped)
	}
	track := int32(-1)
	for _, r := range recs {
		if r.Name == "tlpsw.partition" {
			track = r.Track
		}
	}
	if track < 0 {
		t.Fatal("no tlpsw.partition span recorded")
	}
	count := map[string]int{}
	for _, r := range recs {
		if r.Track == track {
			count[r.Name]++
		}
	}
	for _, name := range []string{"tlpsw.grow", "tlp.round", "tlp.stage1"} {
		if count[name] == 0 {
			t.Errorf("no %s span under tlpsw.partition (recorded: %v)", name, count)
		}
	}
	if count["tlp.round"] < count["tlpsw.grow"] {
		t.Errorf("%d tlp.round spans for %d tlpsw.grow spans", count["tlp.round"], count["tlpsw.grow"])
	}
	samePlacement(t, "traced TLP-SW against untraced", traced, plain)
}
