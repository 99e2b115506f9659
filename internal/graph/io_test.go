package graph

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# a comment
% another comment style
0 1
1 2

2 0 999 extra-columns-ignored
`
	g, idm, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("V=%d E=%d, want 3,3", g.NumVertices(), g.NumEdges())
	}
	if idm.Len() != 3 {
		t.Fatalf("idmap has %d entries", idm.Len())
	}
}

func TestReadEdgeListRemapsSparseIDs(t *testing.T) {
	in := "1000000 2000000\n2000000 3000000\n"
	g, idm, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 {
		t.Fatalf("sparse ids not remapped: %d vertices", g.NumVertices())
	}
	for want, orig := range []int64{1000000, 2000000, 3000000} {
		if d, ok := idm.Dense(orig); !ok || d != Vertex(want) {
			t.Fatalf("original id %d mapped to %d, %v; want dense %d in first-appearance order", orig, d, ok, want)
		}
	}
	if _, ok := idm.Dense(42); ok {
		t.Fatal("IDMap invented an id")
	}
}

func TestReadEdgeListDedupes(t *testing.T) {
	in := "0 1\n1 0\n0 1\n5 5\n"
	g, _, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("got %d edges, want 1 (dupes and self-loops dropped)", g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",     // too few fields
		"a b\n",   // non-numeric
		"0 xyz\n", // non-numeric second
		"-1 2\n",  // negative
		"3 -7\n",  // negative second
	}
	for _, in := range cases {
		if _, _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q accepted, want error", in)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := MustFromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}, {1, 3}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed size: V %d->%d E %d->%d",
			g.NumVertices(), g2.NumVertices(), g.NumEdges(), g2.NumEdges())
	}
}

func TestFileRoundTrip(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	for _, name := range []string{"g.txt", "g.txt.gz"} {
		path := filepath.Join(t.TempDir(), name)
		if err := SaveEdgeListFile(path, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g2, _, err := LoadEdgeListFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: edges %d != %d", name, g2.NumEdges(), g.NumEdges())
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, _, err := LoadEdgeListFile(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Fatal("loading missing file succeeded")
	}
}

func TestReadEdgeListLongLineGrowsBuffer(t *testing.T) {
	// A 2 MiB line would have overflowed the previous fixed 1 MiB scanner
	// buffer; the grown scanner must parse it (trailing columns ignored).
	var sb strings.Builder
	sb.WriteString("0 1 ")
	sb.WriteString(strings.Repeat("x", 2*1024*1024))
	sb.WriteString("\n1 2\n")
	g, _, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("2 MiB line rejected: %v", err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("got %d edges, want 2", g.NumEdges())
	}
}

func TestReadEdgeListLineCapErrorNamesLine(t *testing.T) {
	old := maxEdgeListLineBytes
	maxEdgeListLineBytes = 1024
	defer func() { maxEdgeListLineBytes = old }()

	in := "0 1\n1 2\n2 3 " + strings.Repeat("y", 4096) + "\n"
	_, _, err := ReadEdgeList(strings.NewReader(in))
	if err == nil {
		t.Fatal("over-cap line accepted")
	}
	if !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "line cap") {
		t.Fatalf("error %q does not name the failing line and cap", err)
	}
}
