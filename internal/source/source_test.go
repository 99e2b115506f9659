package source

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/rng"
)

// randomGraph builds a small random simple graph, mirroring the streaming
// package's test helper.
func randomGraph(t *testing.T, n, m int, seed uint64) *graph.Graph {
	t.Helper()
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u := graph.Vertex(r.Intn(n))
		v := graph.Vertex(r.Intn(n))
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// drain pulls every edge out of src.
func drain(t *testing.T, src EdgeSource) []Edge {
	t.Helper()
	var out []Edge
	for {
		e, ok, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

func TestGraphSourceMatchesEdgeOrder(t *testing.T) {
	g := randomGraph(t, 80, 300, 11)
	for _, ord := range []Order{OrderShuffled, OrderNatural, OrderBFS, 0} {
		want := EdgeOrder(g, ord, 99)
		src := FromGraph(g, ord, 99)
		got := drain(t, src)
		if len(got) != len(want) || len(want) != g.NumEdges() {
			t.Fatalf("order %d: %d edges streamed, %d ordered, want %d", ord, len(got), len(want), g.NumEdges())
		}
		seen := make([]bool, len(want))
		for i, id := range want {
			if seen[id] {
				t.Fatalf("order %d: duplicate edge %d", ord, id)
			}
			seen[id] = true
			if ord == OrderNatural && int(id) != i {
				t.Fatalf("natural order not identity: position %d holds edge %d", i, id)
			}
		}
		for i, e := range got {
			if e.ID != want[i] {
				t.Fatalf("order %d: position %d streamed edge %d, want %d", ord, i, e.ID, want[i])
			}
			ge := g.Edge(e.ID)
			if e.U != ge.U || e.V != ge.V {
				t.Fatalf("order %d: edge %d endpoints (%d,%d), want (%d,%d)", ord, e.ID, e.U, e.V, ge.U, ge.V)
			}
		}
	}
}

func TestGraphSourceResetReproduces(t *testing.T) {
	g := randomGraph(t, 50, 200, 3)
	src := FromGraph(g, OrderShuffled, 7)
	first := drain(t, src)
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	second := drain(t, src)
	if len(first) != len(second) {
		t.Fatalf("pass lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("position %d differs after Reset: %+v vs %+v", i, first[i], second[i])
		}
	}
}

func TestEdgesSource(t *testing.T) {
	g := randomGraph(t, 30, 100, 5)
	src := FromEdges(g.NumVertices(), g.Edges())
	if src.NumVertices() != g.NumVertices() || src.NumEdges() != g.NumEdges() {
		t.Fatalf("sizes (%d,%d), want (%d,%d)", src.NumVertices(), src.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	got := drain(t, src)
	for i, e := range got {
		ge := g.Edge(graph.EdgeID(i))
		if e.ID != graph.EdgeID(i) || e.U != ge.U || e.V != ge.V {
			t.Fatalf("edge %d: got %+v, want id=%d (%d,%d)", i, e, i, ge.U, ge.V)
		}
	}
}

// TestFileSourceMatchesLoadEdgeList checks the streaming parse agrees with
// the CSR loader on vertex interning and edge endpoints for a sparse-id
// file with comments and self-loops.
func TestFileSourceMatchesLoadEdgeList(t *testing.T) {
	content := "# comment\n100 200\n200 300\n300 300\n% other comment\n100 300\n7 100\n"
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	g, idm, err := graph.LoadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	src, err := OpenFile(path, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()

	if src.NumVertices() != g.NumVertices() {
		t.Fatalf("NumVertices %d, want %d", src.NumVertices(), g.NumVertices())
	}
	if src.NumEdges() != 4 { // 4 non-self-loop data lines (no dupes here)
		t.Fatalf("NumEdges %d, want 4", src.NumEdges())
	}
	edges := drain(t, src)
	if len(edges) != 4 {
		t.Fatalf("streamed %d edges, want 4", len(edges))
	}
	for i, e := range edges {
		if e.ID != graph.EdgeID(i) {
			t.Fatalf("edge %d has ID %d, want sequential", i, e.ID)
		}
	}
	// Interning is first-appearance order in both paths, so dense ids agree.
	for _, orig := range []int64{100, 200, 300, 7} {
		want, _ := idm.Dense(orig)
		if got, ok := src.IDMap().Dense(orig); !ok || got != want {
			t.Fatalf("original id %d interned as %d, CSR loader gave %d", orig, got, want)
		}
	}
}

func TestFileSourceResetReproduces(t *testing.T) {
	g := randomGraph(t, 60, 250, 9)
	path := filepath.Join(t.TempDir(), "g.txt.gz")
	if err := graph.SaveEdgeListFile(path, g); err != nil {
		t.Fatal(err)
	}
	src, err := OpenFile(path, FileConfig{DenseIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()
	if src.NumVertices() != g.NumVertices() || src.NumEdges() != g.NumEdges() {
		t.Fatalf("sizes (%d,%d), want (%d,%d)", src.NumVertices(), src.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	first := drain(t, src)
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	second := drain(t, src)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("position %d differs after Reset: %+v vs %+v", i, first[i], second[i])
		}
	}
	// Natural-order file written from a CSR round-trips the edge array.
	for i, e := range first {
		ge := g.Edge(graph.EdgeID(i))
		if e.U != ge.U || e.V != ge.V {
			t.Fatalf("edge %d endpoints (%d,%d), want (%d,%d)", i, e.U, e.V, ge.U, ge.V)
		}
	}
}

func TestFileSourceErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenFile(filepath.Join(dir, "missing.txt"), FileConfig{}); err == nil {
		t.Fatal("opening missing file succeeded")
	}
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("0 1\nnope\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(bad, FileConfig{}); err == nil {
		t.Fatal("opening malformed file succeeded")
	}
}

func TestGenSourceMatchesDataset(t *testing.T) {
	d := gen.SmallDatasets()[0]
	src := FromDataset(d, 7)
	if src.NumVertices() != d.Vertices || src.NumEdges() != d.Edges {
		t.Fatalf("sizes (%d,%d), want (%d,%d)", src.NumVertices(), src.NumEdges(), d.Vertices, d.Edges)
	}
	g := d.Generate(7)
	edges := drain(t, src)
	if len(edges) != g.NumEdges() {
		t.Fatalf("streamed %d edges, want %d", len(edges), g.NumEdges())
	}
	for i, e := range edges {
		ge := g.Edge(graph.EdgeID(i))
		if e.ID != graph.EdgeID(i) || e.U != ge.U || e.V != ge.V {
			t.Fatalf("edge %d: got %+v, want (%d,%d)", i, e, ge.U, ge.V)
		}
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	again := drain(t, src)
	for i := range edges {
		if edges[i] != again[i] {
			t.Fatalf("position %d differs after Reset", i)
		}
	}
}
