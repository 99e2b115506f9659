package partition_test

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"github.com/graphpart/graphpart/internal/core"
	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/streaming"
)

// metricsHash folds every field of m through FNV-1a 64: integers as
// little-endian int64, floats by their IEEE-754 bits, so any change in any
// digit (or an Inf turning finite) moves the hash.
func metricsHash(m partition.Metrics) uint64 {
	h := fnv.New64a()
	put := func(x uint64) { _ = binary.Write(h, binary.LittleEndian, x) }
	for _, x := range []int{m.P, m.MaxLoad, m.MinLoad, m.SpannedVertices, m.TotalReplicas} {
		put(uint64(int64(x)))
	}
	put(math.Float64bits(m.ReplicationFactor))
	put(math.Float64bits(m.Balance))
	for _, mod := range m.Modularity {
		put(math.Float64bits(mod))
	}
	return h.Sum64()
}

// TestMetricsReportGolden pins Compute's Metrics and BuildReport's JSON on
// G1 (graph seed 42, partitioner seed 42) at the paper's regime (TLP, p=10)
// and past the one-word presence bitset (Random, p=70). The hashes were
// captured from the metric code before its replica scans were unified; any
// change to them is a visible change in reported quality.
func TestMetricsReportGolden(t *testing.T) {
	d := gen.Datasets()[0]
	if d.Notation != "G1" {
		t.Fatalf("first dataset is %s, want G1", d.Notation)
	}
	g := d.Generate(42)
	cases := []struct {
		name                 string
		p                    int
		pt                   partition.Partitioner
		wantMetrics, wantRep uint64
	}{
		{"tlp/p10", 10, core.MustNew(core.Options{Seed: 42}), 0xafeace97e00c2ce3, 0x936b10fe75eb2e2b},
		{"random/p70", 70, streaming.NewRandom(42), 0x3ad03687c68c9f18, 0x67b69396f34ace65},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, err := c.pt.Partition(g, c.p)
			if err != nil {
				t.Fatal(err)
			}
			m, err := partition.Compute(g, a)
			if err != nil {
				t.Fatal(err)
			}
			if got := metricsHash(m); got != c.wantMetrics {
				t.Errorf("metrics hash %#016x, want %#016x (%v)", got, c.wantMetrics, m)
			}
			rep, err := partition.BuildReport(g, a)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(buf.Bytes())
			if got := h.Sum64(); got != c.wantRep {
				t.Errorf("report JSON hash %#016x, want %#016x", got, c.wantRep)
			}
		})
	}
}
