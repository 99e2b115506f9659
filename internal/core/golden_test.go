package core_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/graphpart/graphpart/internal/core"
	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
)

// goldenHash folds an assignment's per-edge partition ids (little-endian
// int32, unassigned as -1) through FNV-1a 64. The recipe is fixed forever:
// the expected values below were captured from the pre-kernel scoring code,
// so matching them proves the alive-row layout, the oriented triangle
// counts and the pair kernels are bit-identical with the original
// mark-and-scan implementation.
func goldenHash(a *partition.Assignment) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 4)
	for e := 0; e < a.NumEdges(); e++ {
		k, ok := a.PartitionOf(graph.EdgeID(e))
		if !ok {
			k = -1
		}
		buf[0] = byte(k)
		buf[1] = byte(k >> 8)
		buf[2] = byte(k >> 16)
		buf[3] = byte(k >> 24)
		h.Write(buf)
	}
	return h.Sum64()
}

// goldenCase pins one (dataset, algorithm, p) partitioning to the hash the
// seed implementation produced. algo selects a constructor in runGolden.
type goldenCase struct {
	dataset string // gen notation; "s" suffix means the small variant
	algo    string
	p       int
	want    uint64
}

// goldenCases were captured from the repository state before the stage-I
// kernel rework (graph seed 42, algorithm seed 42 throughout). Do not
// regenerate these with current code — they are the oracle.
var goldenCases = []goldenCase{
	{"G1s", "tlp", 4, 0x9d9c02ba6b831fe6}, {"G1s", "tlp", 8, 0x3dc7bbf2ed898902},
	{"G2s", "tlp", 4, 0x8e9a915145b04a25}, {"G2s", "tlp", 8, 0x345e49f06701e1f5},
	{"G3s", "tlp", 4, 0x3627b494cc267845}, {"G3s", "tlp", 8, 0xf83f0ab1ac2c8d15},
	{"G4s", "tlp", 4, 0xeaddf6a3469bb3b6}, {"G4s", "tlp", 8, 0x233194d1598304b2},
	{"G5s", "tlp", 4, 0x97963fa41e2a3746}, {"G5s", "tlp", 8, 0x9b2a9415d76746c2},
	{"G6s", "tlp", 4, 0x1e3e933e93b153f6}, {"G6s", "tlp", 8, 0x744659b778e32ca2},
	{"G7s", "tlp", 4, 0xfb4eb6ae1c8e7435}, {"G7s", "tlp", 8, 0x4fd7fe1dacc47f35},
	{"G8s", "tlp", 4, 0x412937866833af75}, {"G8s", "tlp", 8, 0xa62918b9fabbaac5},
	{"G9s", "tlp", 4, 0x4224727e7a015c86}, {"G9s", "tlp", 8, 0x9b57d27c63791fc2},
	{"G1", "tlp", 10, 0xcca9a4552366123c},
	{"G1s", "tlpr", 6, 0x22d1438894c04aa1},
	{"G2s", "tlpr", 6, 0x8def60702a01ce75},
	{"G3s", "tlpr", 6, 0xa8be804faeba5005},
	{"G1s", "exact", 4, 0x6c5c8d341bd71d46},
	{"G2s", "exact", 4, 0xf7317563daa320d5},
	{"G3s", "exact", 4, 0xc9a36433b184e585},
	{"G1s", "maxdeg", 4, 0xd47940cc71d46f06},
	{"G2s", "maxdeg", 4, 0x1660841706ca1a25},
	{"G3s", "maxdeg", 4, 0xaa9a99247533fd85},
}

// goldenGraph resolves a dataset notation to its deterministic graph.
func goldenGraph(t *testing.T, notation string) *graph.Graph {
	t.Helper()
	for _, d := range append(gen.Datasets(), gen.SmallDatasets()...) {
		if d.Notation == notation {
			return d.Generate(42)
		}
	}
	t.Fatalf("unknown dataset %q", notation)
	return nil
}

// runGolden partitions the case's graph with the case's algorithm and
// returns the assignment.
func runGolden(t *testing.T, g *graph.Graph, c goldenCase) *partition.Assignment {
	t.Helper()
	var pt partition.Partitioner
	switch c.algo {
	case "tlp":
		pt = core.MustNew(core.Options{Seed: 42})
	case "tlpr":
		pt = core.MustNewTLPR(0.5, core.Options{Seed: 42})
	case "exact":
		pt = core.MustNew(core.Options{Seed: 42, Stage1Exact: true})
	case "maxdeg":
		pt = core.MustNew(core.Options{Seed: 42, Stage1Policy: core.PolicyMaxDegree})
	default:
		t.Fatalf("unknown algo %q", c.algo)
	}
	a, err := pt.Partition(g, c.p)
	if err != nil {
		t.Fatalf("%s/%s/p=%d: %v", c.dataset, c.algo, c.p, err)
	}
	return a
}

// TestGoldenSeedIdentity proves the kernel rework changed nothing the user
// can observe: every (dataset, algorithm, p) case reproduces the exact
// partition hash the pre-rework code produced.
func TestGoldenSeedIdentity(t *testing.T) {
	for _, c := range goldenCases {
		c := c
		t.Run(fmt.Sprintf("%s/%s/p%d", c.dataset, c.algo, c.p), func(t *testing.T) {
			g := goldenGraph(t, c.dataset)
			if got := goldenHash(runGolden(t, g, c)); got != c.want {
				t.Errorf("partition hash %#016x, want seed-identical %#016x", got, c.want)
			}
		})
	}
}
