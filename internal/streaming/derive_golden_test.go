package streaming

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/metis"
	"github.com/graphpart/graphpart/internal/partition"
)

// deriveHash folds an assignment's per-edge partition ids (little-endian
// int32, unassigned as -1) through FNV-1a 64, the recipe of the core, refine
// and metis golden oracles.
func deriveHash(a *partition.Assignment) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 4)
	for e := 0; e < a.NumEdges(); e++ {
		k, ok := a.PartitionOf(graph.EdgeID(e))
		if !ok {
			k = -1
		}
		buf[0], buf[1], buf[2], buf[3] = byte(k), byte(k>>8), byte(k>>16), byte(k>>24)
		h.Write(buf)
	}
	return h.Sum64()
}

// deriveGoldenCase pins the edge placement that the lighter-endpoint
// derivation gives each vertex-partition baseline on one (dataset, p).
// graph holds the Partition results of METIS, KL, LDG and FENNEL.
type deriveGoldenCase struct {
	dataset string
	p       int
	graph   [4]uint64
}

// deriveGoldenCases are the oracle (graph seed 42, partitioner seed 42). A
// change that alters a hash changes a baseline's output and must say so,
// not regenerate the table.
var deriveGoldenCases = []deriveGoldenCase{
	{"G1s", 4, [4]uint64{0x5e33d01da0d33334, 0x0cb70b3457744056, 0xb95ee7d26afa4b04, 0x4e88351af4212ee5}},
	{"G1s", 10, [4]uint64{0x02036ccacfe6b0e2, 0x136a3985885be67c, 0x5736d568304ef7c0, 0xb3285b6aa6f1957e}},
	{"G2s", 4, [4]uint64{0x2e4687cce9502494, 0x715e33ee1985ec95, 0xecdba1a49394f084, 0x9658a0a152d91d45}},
	{"G2s", 10, [4]uint64{0x9ddee9d22ebb8e9f, 0x69ae1d478f98c317, 0x220e737efc62d404, 0x4aebf15428800e3c}},
	{"G3s", 4, [4]uint64{0x85e4a40edfb44a14, 0x72b44ac5f41d25d7, 0x0f568a73d921fe77, 0x2608eb4918f66207}},
	{"G3s", 10, [4]uint64{0xb718d7f87800305f, 0x302207b1f1f205e5, 0xa375198746e0c9d3, 0xe3006a96d846b578}},
}

// TestDeriveGoldenOracle pins every vertex-partition baseline's derived
// edge partition on G1s-G3s at p in {4, 10}.
func TestDeriveGoldenOracle(t *testing.T) {
	graphParts := []partition.Partitioner{
		metis.New(metis.Config{Seed: 42}),
		metis.NewFlatKL(metis.Config{Seed: 42}),
		NewLDG(42),
		NewFENNEL(42),
	}
	for _, c := range deriveGoldenCases {
		t.Run(fmt.Sprintf("%s/p%d", c.dataset, c.p), func(t *testing.T) {
			var g *graph.Graph
			for _, d := range gen.SmallDatasets() {
				if d.Notation == c.dataset {
					g = d.Generate(42)
				}
			}
			if g == nil {
				t.Fatalf("unknown dataset %q", c.dataset)
			}
			for i, pt := range graphParts {
				a, err := pt.Partition(g, c.p)
				if err != nil {
					t.Fatalf("%s: %v", pt.Name(), err)
				}
				if got := deriveHash(a); got != c.graph[i] {
					t.Errorf("%s Partition hash %#016x, want oracle %#016x", pt.Name(), got, c.graph[i])
				}
			}
		})
	}
}
