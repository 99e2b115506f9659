package refine

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/graphpart/graphpart/internal/core"
	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/metis"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/streaming"
)

// goldenHash folds an assignment's per-edge partition ids (little-endian
// int32) through FNV-1a 64 — the same recipe as the core golden oracle.
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

// refineGoldenCase pins the refined assignment of one (dataset, family, p)
// input to the hash the initial implementation produced.
type refineGoldenCase struct {
	dataset string
	family  string
	p       int
	want    uint64
}

// refineGoldenCases were captured from the initial move/swap refiner (graph
// seed 42, partitioner seed 42 throughout, default refine options). They are
// the oracle: future changes to the refiner that alter any hash are visible
// behaviour changes and must be flagged as such, not absorbed silently.
var refineGoldenCases = []refineGoldenCase{
	{"G1s", "random", 4, 0x662ccfa592b77815},
	{"G1s", "random", 8, 0x0edfa8016e96b990},
	{"G2s", "random", 4, 0x023ed5c46e91cb55},
	{"G3s", "hdrf", 4, 0xabb28be330d80ed7},
	{"G2s", "hdrf", 8, 0xd807120a83c677a7},
	{"G1s", "tlp", 4, 0x13f923b09652d427},
	{"G3s", "tlp", 8, 0x17d80448860d2a97},
	// Captured later from the same refiner, before its swap scoring was
	// rewritten: METIS + DeriveBalanced is the family the metis-refine
	// benchmark refines, and random at p=80 runs the sparse (p > 64) State.
	{"G1s", "metis", 10, 0x0391aa38a5150e8b},
	{"G2s", "metis", 10, 0x477a4260b53f1105},
	{"G1s", "random", 80, 0x7e4be6fefcba41bd},
}

// refineGoldenGraph resolves a dataset notation to its deterministic graph.
func refineGoldenGraph(t *testing.T, notation string) *graph.Graph {
	t.Helper()
	for _, d := range append(gen.Datasets(), gen.SmallDatasets()...) {
		if d.Notation == notation {
			return d.Generate(42)
		}
	}
	t.Fatalf("unknown dataset %q", notation)
	return nil
}

// refineGoldenInput partitions the case's graph with the case's family.
func refineGoldenInput(t *testing.T, g *graph.Graph, c refineGoldenCase) *partition.Assignment {
	t.Helper()
	var pt partition.Partitioner
	switch c.family {
	case "metis":
		labels, err := metis.New(metis.Config{Seed: 42}).VertexPartition(g, c.p)
		if err != nil {
			t.Fatalf("%s/%s/p=%d: %v", c.dataset, c.family, c.p, err)
		}
		a, err := metis.DeriveBalanced(g, labels, c.p)
		if err != nil {
			t.Fatalf("%s/%s/p=%d: %v", c.dataset, c.family, c.p, err)
		}
		return a
	case "tlp":
		pt = core.MustNew(core.Options{Seed: 42})
	case "random":
		pt = streaming.NewRandom(42)
	case "hdrf":
		pt = streaming.NewHDRF(42, streaming.OrderShuffled)
	default:
		t.Fatalf("unknown family %q", c.family)
	}
	a, err := pt.Partition(g, c.p)
	if err != nil {
		t.Fatalf("%s/%s/p=%d: %v", c.dataset, c.family, c.p, err)
	}
	return a
}

// TestRefineGoldenOracle pins the refined output of every case: the hash
// must equal the captured oracle, proving the refiner's behaviour is frozen.
func TestRefineGoldenOracle(t *testing.T) {
	for _, c := range refineGoldenCases {
		c := c
		t.Run(fmt.Sprintf("%s/%s/p%d", c.dataset, c.family, c.p), func(t *testing.T) {
			g := refineGoldenGraph(t, c.dataset)
			a := refineGoldenInput(t, g, c)
			capC := int(1.2 * float64(partition.Capacity(g.NumEdges(), c.p)))
			if _, err := Run(g, a, Options{Capacity: capC}); err != nil {
				t.Fatal(err)
			}
			if got := goldenHash(a); got != c.want {
				t.Errorf("refined hash %#016x, want oracle %#016x", got, c.want)
			}
		})
	}
}
