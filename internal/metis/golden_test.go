package metis

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
)

// labelsHash folds vertex labels (little-endian int32) through FNV-1a 64.
func labelsHash(labels []int32) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 4)
	for _, k := range labels {
		buf[0] = byte(k)
		buf[1] = byte(k >> 8)
		buf[2] = byte(k >> 16)
		buf[3] = byte(k >> 24)
		h.Write(buf)
	}
	return h.Sum64()
}

// assignmentHash folds an assignment's per-edge partition ids through the
// same recipe as the core and refine golden oracles (unassigned as -1).
func assignmentHash(a *partition.Assignment) uint64 {
	labels := make([]int32, a.NumEdges())
	for e := range labels {
		k, ok := a.PartitionOf(graph.EdgeID(e))
		if !ok {
			k = -1
		}
		labels[e] = int32(k)
	}
	return labelsHash(labels)
}

// metisGoldenCase pins one (dataset, p) run: the VertexPartition labels and
// the DeriveBalanced assignment built from them.
type metisGoldenCase struct {
	dataset string
	p       int
	labels  uint64
	derived uint64
}

// metisGoldenCases were captured from the map-and-sort coarsening that
// preceded the slot-table contraction (graph seed 42, partitioner seed 42).
// They are the oracle: a change that alters any hash changes METIS's output
// and must say so, not regenerate the table.
var metisGoldenCases = []metisGoldenCase{
	{"G1s", 2, 0x4bd571121d3b5af4, 0x0dfe362ef5ccfa15},
	{"G1s", 10, 0xc78b998bc45905a7, 0xd9f0d11f5b1a6b4c},
	{"G1s", 15, 0x60af169f1b605b27, 0x39899f1e86a1f17c},
	{"G2s", 2, 0xbe26bd3a55114464, 0x1cc25a173960ccc5},
	{"G2s", 10, 0x7553e234ed2d29d2, 0x64e4492e259c7e64},
	{"G2s", 15, 0x38cfc36ba1dae373, 0x2421a59770b9e085},
	{"G3s", 2, 0x033d0b7b2da84615, 0x99a8f796b23fba05},
	{"G3s", 10, 0x045d6e561578ae14, 0x7ed2d2d8fd3fa8a4},
	{"G3s", 15, 0xb78a5c7f0928c360, 0x19e6b2811262a434},
	{"G4s", 2, 0xd70b556231bb4c35, 0x3cc870fc88b595e4},
	{"G4s", 10, 0xf8abac2973187180, 0xb4df4982df577ffd},
	{"G4s", 15, 0xe686d1b1f55e77e3, 0x9213b0bbadd4fb3b},
	{"G5s", 2, 0x4df87340932abbc4, 0xd8e5901aa13103c5},
	{"G5s", 10, 0xb207605453d69523, 0x2c3af2a47345395c},
	{"G5s", 15, 0x1fa16c92b403c1e3, 0xaee06786266ce93b},
	{"G6s", 2, 0xd3e36c63699abc34, 0x8c70a665dca84e04},
	{"G6s", 10, 0x03c57961d7b266ea, 0x15e76cb79b59203d},
	{"G6s", 15, 0x1e62cadb3c54934e, 0x86021b0d3a92803a},
	{"G7s", 2, 0x3381c65888a57485, 0xfbb3dc2da5cb82b5},
	{"G7s", 10, 0x670e1e3aef3b5b25, 0x188e53a9bc9d5f65},
	{"G7s", 15, 0x712363ca391c969c, 0xd62884a08cf81926},
	{"G8s", 2, 0x6539415bd9cab5b4, 0x698c8472a3a866c4},
	{"G8s", 10, 0x53e264788e422c27, 0xf2b472bc0b3a2734},
	{"G8s", 15, 0xd5fdec83c28105f9, 0x6fdb1e7429c99d04},
	{"G9s", 2, 0x9480512944ed5b94, 0xc4b9d2766a717504},
	{"G9s", 10, 0xf2663a674c76ab52, 0xa5283efe8f236acf},
	{"G9s", 15, 0x4089b8e894ca0106, 0x4ff34d620122cfa1},
	{"G1", 2, 0xcaefcbda6e0b41e5, 0x50aebe98f5e77184},
	{"G1", 10, 0xf99735727f168442, 0xb47d4bc08290891d},
	{"G1", 15, 0x1809fc6ef9ed8cfd, 0xad7234191b51b23a},
	{"G2", 2, 0x129c0d8e2d7a19b4, 0xe5398d59f6e06604},
	{"G2", 10, 0x4ab8dc553ceacd45, 0x69cd9543c9bab27d},
	{"G2", 15, 0xbbdd194a72890e10, 0xe137e37e584ce39a},
}

// metisGoldenGraph resolves a dataset notation to its deterministic graph.
func metisGoldenGraph(t *testing.T, notation string) *graph.Graph {
	t.Helper()
	for _, d := range append(gen.Datasets(), gen.SmallDatasets()...) {
		if d.Notation == notation {
			return d.Generate(42)
		}
	}
	t.Fatalf("unknown dataset %q", notation)
	return nil
}

// TestMetisGoldenOracle pins METIS's vertex labels and balanced edge
// derivation on every small dataset plus G1 and G2 at p in {2, 10, 15}.
func TestMetisGoldenOracle(t *testing.T) {
	for _, c := range metisGoldenCases {
		c := c
		t.Run(fmt.Sprintf("%s/p%d", c.dataset, c.p), func(t *testing.T) {
			g := metisGoldenGraph(t, c.dataset)
			labels, err := New(Config{Seed: 42}).VertexPartition(g, c.p)
			if err != nil {
				t.Fatal(err)
			}
			if got := labelsHash(labels); got != c.labels {
				t.Errorf("labels hash %#016x, want oracle %#016x", got, c.labels)
			}
			a, err := DeriveBalanced(g, labels, c.p)
			if err != nil {
				t.Fatal(err)
			}
			if got := assignmentHash(a); got != c.derived {
				t.Errorf("derived hash %#016x, want oracle %#016x", got, c.derived)
			}
		})
	}
}
