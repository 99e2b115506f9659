package gen_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/graph"
)

// csrHash folds a graph's four CSR arrays through FNV-1a 64, in order:
// offsets (little-endian int64, n+1 entries), adj and adjEdge (int32, 2m
// entries each, row by row) and edges (U then V as int32, m entries). The
// arrays are read back through the public accessors, so the hash pins the
// exact layout every consumer sees: row order, neighbour order within a
// row, and EdgeID numbering.
func csrHash(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var b8 [8]byte
	var b4 [4]byte
	put32 := func(x int32) {
		binary.LittleEndian.PutUint32(b4[:], uint32(x))
		h.Write(b4[:])
	}
	n := g.NumVertices()
	off := int64(0)
	for v := 0; v <= n; v++ {
		binary.LittleEndian.PutUint64(b8[:], uint64(off))
		h.Write(b8[:])
		if v < n {
			off += int64(g.Degree(graph.Vertex(v)))
		}
	}
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(graph.Vertex(v)) {
			put32(u)
		}
	}
	for v := 0; v < n; v++ {
		for _, id := range g.IncidentEdges(graph.Vertex(v)) {
			put32(id)
		}
	}
	for _, e := range g.Edges() {
		put32(e.U)
		put32(e.V)
	}
	return h.Sum64()
}

// graphGoldens were captured at graph seed 42 from the comparison-sort
// builder (sort.Slice, then a sort of every CSR row) and the generators'
// map-based edge dedupe. Do not regenerate them with current code: they are
// the graph-identity oracle.
var graphGoldens = map[string]uint64{
	"G1": 0x083aeadd52f6192f, "G2": 0x61e8b0647fc11b4f, "G3": 0x323a5fff1311b8db,
	"G4": 0x8e0d91e9175da58d, "G5": 0x6993a14596d55a5d, "G6": 0x47e2571bf8436e3b,
	"G7": 0xefde22232ea52252, "G8": 0xae83ec83bf8bd68d, "G9": 0x1fe49bc79436e6cd,
	"G1s": 0x876bbc5f161f898d, "G2s": 0xdf17658729edbcb8, "G3s": 0xb0dbfc14b8f2b16f,
	"G4s": 0x0f12b11177c8c8f1, "G5s": 0x2e5bc7ff9e6ed173, "G6s": 0x4620126be9a6b2d7,
	"G7s": 0x0476495cd9c5a1a4, "G8s": 0xaaf9464834b8bfa8, "G9s": 0x98147e5c66e031da,
}

// TestDatasetGraphGoldens checks that every registry dataset, full and
// small, still generates byte-identical CSR arrays at seed 42.
func TestDatasetGraphGoldens(t *testing.T) {
	ds := append(gen.Datasets(), gen.SmallDatasets()...)
	if testing.Short() {
		ds = gen.SmallDatasets()
	}
	for _, d := range ds {
		d := d
		t.Run(d.Notation, func(t *testing.T) {
			want, ok := graphGoldens[d.Notation]
			if !ok {
				t.Fatalf("no golden for %s", d.Notation)
			}
			if got := csrHash(d.Generate(42)); got != want {
				t.Fatalf("%s: CSR hash %#016x, want %#016x", d.Notation, got, want)
			}
		})
	}
}
