package streaming

import (
	"path/filepath"
	"runtime"
	"testing"

	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
	"github.com/graphpart/graphpart/internal/source"
)

// sliceSource replays a recorded edge sequence verbatim. It is NOT
// graph-backed, so it exercises the pure-stream code paths with a sequence
// whose placement history matches a graph-backed run.
type sliceSource struct {
	n     int
	edges []source.Edge
	pos   int
}

func (s *sliceSource) NumVertices() int { return s.n }
func (s *sliceSource) NumEdges() int    { return len(s.edges) }
func (s *sliceSource) Reset() error     { s.pos = 0; return nil }
func (s *sliceSource) Next() (source.Edge, bool, error) {
	if s.pos >= len(s.edges) {
		return source.Edge{}, false, nil
	}
	e := s.edges[s.pos]
	s.pos++
	return e, true, nil
}

// record drains a source into a sliceSource.
func record(t *testing.T, src source.EdgeSource) *sliceSource {
	t.Helper()
	out := &sliceSource{n: src.NumVertices()}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	for {
		e, ok, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out.edges = append(out.edges, e)
	}
}

// sameAssignment fails unless a and b place every edge identically.
func sameAssignment(t *testing.T, name string, a, b *partition.Assignment) {
	t.Helper()
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("%s: edge counts differ: %d vs %d", name, a.NumEdges(), b.NumEdges())
	}
	for id := 0; id < a.NumEdges(); id++ {
		ka, oka := a.PartitionOf(graph.EdgeID(id))
		kb, okb := b.PartitionOf(graph.EdgeID(id))
		if oka != okb || ka != kb {
			t.Fatalf("%s: edge %d placed (%d,%v) vs (%d,%v)", name, id, ka, oka, kb, okb)
		}
	}
}

// TestEdgeStreamOrders checks the edge stream the order-aware partitioners
// read (source.FromGraph under this package's Order values): every order
// yields each edge exactly once, and OrderNatural is the identity.
func TestEdgeStreamOrders(t *testing.T) {
	g := randomGraph(16, 50, 150)
	m := g.NumEdges()
	for _, ord := range []Order{OrderShuffled, OrderNatural, OrderBFS} {
		edges := record(t, source.FromGraph(g, ord, 17)).edges
		if len(edges) != m {
			t.Fatalf("order %d: %d edges, want %d", ord, len(edges), m)
		}
		seen := make([]bool, m)
		for i, e := range edges {
			if seen[e.ID] {
				t.Fatalf("order %d: duplicate edge %d", ord, e.ID)
			}
			seen[e.ID] = true
			if ord == OrderNatural && int(e.ID) != i {
				t.Fatalf("natural order not identity: position %d holds edge %d", i, e.ID)
			}
		}
	}
}

// TestStreamPathMatchesGraphPath asserts byte-identical assignments between
// the edge streamers' graph path and PartitionStream — both over the
// graph-backed source and over a pure stream replay of the same sequence.
func TestStreamPathMatchesGraphPath(t *testing.T) {
	g := randomGraph(21, 120, 600)
	const p = 5
	cases := []struct {
		name string
		part interface {
			partition.Partitioner
			PartitionStream(source.EdgeSource, int) (*partition.Assignment, error)
		}
		ord Order
	}{
		{"Random", NewRandom(3), OrderNatural},
		{"DBH", NewDBH(3), OrderNatural},
		{"Greedy-shuffled", NewGreedy(3, OrderShuffled), OrderShuffled},
		{"Greedy-bfs", NewGreedy(3, OrderBFS), OrderBFS},
		{"HDRF", NewHDRF(3, OrderShuffled), OrderShuffled},
	}
	for _, tc := range cases {
		legacy, err := tc.part.Partition(g, p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		viaGraphSource, err := tc.part.PartitionStream(source.FromGraph(g, tc.ord, 3), p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sameAssignment(t, tc.name+"/graph-source", legacy, viaGraphSource)

		replay := record(t, source.FromGraph(g, tc.ord, 3))
		viaReplay, err := tc.part.PartitionStream(replay, p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sameAssignment(t, tc.name+"/replay", legacy, viaReplay)
	}
}

// TestFileSourceMatchesGraphPath runs the natural-order edge streamers over
// a file written from the CSR and expects byte-identical assignments to the
// in-memory path — the out-of-core acceptance check.
func TestFileSourceMatchesGraphPath(t *testing.T) {
	g := randomGraph(8, 100, 500)
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := graph.SaveEdgeListFile(path, g); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		part interface {
			partition.Partitioner
			PartitionStream(source.EdgeSource, int) (*partition.Assignment, error)
		}
	}{
		{"Random", NewRandom(9)},
		{"DBH", NewDBH(9)},
		{"Greedy", NewGreedy(9, OrderNatural)},
		{"HDRF", NewHDRF(9, OrderNatural)},
	} {
		src, err := source.OpenFile(path, source.FileConfig{DenseIDs: true})
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := tc.part.Partition(g, 4)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		streamed, err := tc.part.PartitionStream(src, 4)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sameAssignment(t, tc.name+"/file", legacy, streamed)
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileStreamingBoundedMemory is the out-of-core guarantee: partitioning
// a ~1M-edge edge-list file through a FileSource must keep live heap o(|E|)
// — far below the >=28 MB a CSR of that size costs — because the only O(m)
// state is the 4-byte-per-edge assignment itself.
func TestFileStreamingBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-edge generation in -short mode")
	}
	const (
		n = 200_000
		m = 1_000_000
	)
	path := filepath.Join(t.TempDir(), "big.txt")
	func() {
		g := gen.ErdosRenyi(n, m, rng.New(31))
		if g.NumEdges() != m {
			t.Fatalf("generated %d edges, want %d", g.NumEdges(), m)
		}
		if err := graph.SaveEdgeListFile(path, g); err != nil {
			t.Fatal(err)
		}
	}() // graph goes out of scope; only the file survives

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)

	src, err := source.OpenFile(path, source.FileConfig{DenseIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()
	a, err := NewGreedy(7, OrderNatural).PartitionStream(src, 8)
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)

	// Live state: assignment parts (4 B x 1M = 4 MB) + replica bitsets
	// (8 B x 200k = 1.6 MB) + scanner buffer. 12 MB is a generous bound
	// that a CSR path (>= 28 MB: offsets + adjacency + edge array) cannot
	// meet.
	const budget = 12 << 20
	if live > budget {
		t.Fatalf("live heap grew %d bytes (> %d): streaming path is not out-of-core", live, budget)
	}
	if got := a.AssignedCount(); got != m {
		t.Fatalf("%d of %d edges assigned", got, m)
	}
	runtime.KeepAlive(a)
}
