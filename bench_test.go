// Benchmarks mapping one-to-one onto the paper's tables and figures (see
// DESIGN.md §5). They run on the ~10% scale dataset variants so `go test
// -bench=.` finishes in minutes; the full-scale reproduction is
// `go run ./cmd/experiments -exp all`, whose output EXPERIMENTS.md records.
package graphpart_test

import (
	"fmt"
	"testing"

	graphpart "github.com/graphpart/graphpart"
	"github.com/graphpart/graphpart/internal/core"
	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/partition"
	"github.com/graphpart/graphpart/internal/rng"
)

// benchGraphs caches the small dataset analogues across benchmarks.
var benchGraphs = func() map[string]*graph.Graph {
	out := make(map[string]*graph.Graph)
	for _, d := range gen.SmallDatasets() {
		out[d.Notation] = d.Generate(42)
	}
	return out
}()

// BenchmarkDatasets regenerates the Table III datasets (small variants).
func BenchmarkDatasets(b *testing.B) {
	for _, d := range gen.SmallDatasets() {
		b.Run(d.Notation, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := d.Generate(42)
				if g.NumEdges() != d.Edges {
					b.Fatal("wrong size")
				}
			}
		})
	}
}

// BenchmarkFig8 measures each algorithm of Fig. 8 on each dataset at p=10.
func BenchmarkFig8(b *testing.B) {
	all := graphpart.AllPartitioners(42)
	for _, key := range []string{"tlp", "metis", "ldg", "dbh", "random"} {
		alg := all[key]
		for _, d := range gen.SmallDatasets() {
			g := benchGraphs[d.Notation]
			b.Run(fmt.Sprintf("%s/%s", alg.Name(), d.Notation), func(b *testing.B) {
				b.ReportAllocs()
				var lastRF float64
				for i := 0; i < b.N; i++ {
					a, err := alg.Partition(g, 10)
					if err != nil {
						b.Fatal(err)
					}
					rf, err := partition.ReplicationFactor(g, a)
					if err != nil {
						b.Fatal(err)
					}
					lastRF = rf
				}
				b.ReportMetric(lastRF, "RF")
			})
		}
	}
}

// BenchmarkTable4 runs the METIS-vs-TLP pair whose difference is Table IV.
func BenchmarkTable4(b *testing.B) {
	g := benchGraphs["G2s"]
	b.Run("TLP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := graphpart.NewTLP(graphpart.TLPOptions{Seed: 42}).Partition(g, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("METIS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := graphpart.NewMETIS(graphpart.METISConfig{Seed: 42}).Partition(g, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig9to11 sweeps TLP_R's ratio (the Figs. 9-11 ablation) on one
// dataset; p matches Fig. 9 (10), 10 (15) and 11 (20).
func BenchmarkFig9to11(b *testing.B) {
	g := benchGraphs["G1s"]
	for _, p := range []int{10, 15, 20} {
		for _, r := range []float64{0, 0.3, 0.5, 0.7, 1.0} {
			b.Run(fmt.Sprintf("p%d/R%.1f", p, r), func(b *testing.B) {
				var lastRF float64
				for i := 0; i < b.N; i++ {
					pt, err := graphpart.NewTLPR(r, graphpart.TLPOptions{Seed: 42})
					if err != nil {
						b.Fatal(err)
					}
					a, err := pt.Partition(g, p)
					if err != nil {
						b.Fatal(err)
					}
					rf, err := partition.ReplicationFactor(g, a)
					if err != nil {
						b.Fatal(err)
					}
					lastRF = rf
				}
				b.ReportMetric(lastRF, "RF")
			})
		}
	}
}

// BenchmarkTable6 measures TLP with stage statistics collection (the data
// behind Table VI).
func BenchmarkTable6(b *testing.B) {
	g := benchGraphs["G2s"]
	tlp := core.MustNew(core.Options{Seed: 42})
	b.ReportAllocs()
	var d1, d2 float64
	for i := 0; i < b.N; i++ {
		_, stats, err := tlp.PartitionStats(g, 10)
		if err != nil {
			b.Fatal(err)
		}
		d1, d2 = stats.AvgDegreeStage1(), stats.AvgDegreeStage2()
	}
	b.ReportMetric(d1, "deg_stage1")
	b.ReportMetric(d2, "deg_stage2")
}

// BenchmarkTLPScaling probes the complexity claim of Section III.E
// (O(L^2 d^2) time, O(Ld) space): doubling the graph size should scale the
// per-run time near-linearly in m for fixed p, because the incremental
// implementation amortises the frontier work.
func BenchmarkTLPScaling(b *testing.B) {
	for _, scale := range []int{1, 2, 4, 8} {
		n := 2500 * scale
		m := 12500 * scale
		g := gen.ChungLu(gen.ChungLuConfig{Vertices: n, TargetEdges: m, Exponent: 2.1}, rng.New(uint64(scale)))
		b.Run(fmt.Sprintf("m%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := graphpart.NewTLP(graphpart.TLPOptions{Seed: 42}).Partition(g, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnginePageRank measures the GAS engine on a TLP partitioning
// (the extension experiment tying RF to synchronisation traffic).
func BenchmarkEnginePageRank(b *testing.B) {
	g := benchGraphs["G2s"]
	a, err := graphpart.NewTLP(graphpart.TLPOptions{Seed: 42}).Partition(g, 8)
	if err != nil {
		b.Fatal(err)
	}
	e, err := graphpart.NewEngine(g, a)
	if err != nil {
		b.Fatal(err)
	}
	prog := graphpart.NewPageRank(g.NumVertices(), 0.85, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Run(prog, 10); err != nil {
			b.Fatal(err)
		}
	}
}
