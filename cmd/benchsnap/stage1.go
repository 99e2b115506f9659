package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"time"

	"github.com/graphpart/graphpart/internal/core"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/obs"
	"github.com/graphpart/graphpart/internal/partition"
)

// Stage1Kernels mirrors core.KernelCounts with JSON names matching the
// telemetry counters (tlp.s1.kernel_*).
type Stage1Kernels struct {
	Scan    int64 `json:"scan"`
	Bitset  int64 `json:"bitset"`
	Word    int64 `json:"word"`
	Gallop  int64 `json:"gallop"`
	Sampled int64 `json:"sampled"`
}

// Stage1Run is one traced TLP partitioning of the probe: total wall clock,
// the stage-segment span totals, the per-kernel phase segments (tlp.s1.*)
// and the kernel dispatch mix, plus the FNV-1a hash of the resulting
// assignment — equal hashes across the repeats prove the run is
// deterministic.
type Stage1Run struct {
	Seconds          float64       `json:"seconds"`
	Stage1Seconds    float64       `json:"tlp_stage1_seconds"`
	Stage2Seconds    float64       `json:"tlp_stage2_seconds"`
	CompactSeconds   float64       `json:"s1_compact_seconds"`
	IntersectSeconds float64       `json:"s1_intersect_seconds"`
	Kernels          Stage1Kernels `json:"kernels"`
	PartitionHash    string        `json:"partition_hash"`
}

// Stage1Snapshot is the BENCH_stage1.json document: repeated runs of the
// probe cell plus the comparison against the committed pre-kernel baseline
// (BENCH_obs.json's tlp_stage1_seconds for the same cell).
type Stage1Snapshot struct {
	Dataset               string      `json:"dataset"`
	P                     int         `json:"p"`
	Seed                  uint64      `json:"seed"`
	NumCPU                int         `json:"num_cpu"`
	GOMAXPROCS            int         `json:"gomaxprocs"`
	GoVersion             string      `json:"go_version"`
	GeneratedAt           string      `json:"generated_at"`
	BaselineFile          string      `json:"baseline_file,omitempty"`
	BaselineStage1Seconds float64     `json:"baseline_stage1_seconds,omitempty"`
	BestStage1Seconds     float64     `json:"best_stage1_seconds"`
	SpeedupVsBaseline     float64     `json:"speedup_vs_baseline,omitempty"`
	Runs                  []Stage1Run `json:"runs"`
}

// stage1Hash folds the per-edge partition ids (little-endian int32,
// unassigned as -1) through FNV-1a 64 — the same recipe the golden
// seed-identity test pins.
func stage1Hash(a *partition.Assignment) uint64 {
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

// collectStage1 runs the traced probe repeats times over one (dataset, p)
// cell and compares the best stage-I time against the committed baseline
// file.
func collectStage1(g *graph.Graph, dataset string, seed uint64, p, repeats int, baselineFile string) (*Stage1Snapshot, error) {
	snap := &Stage1Snapshot{
		Dataset:     dataset,
		P:           p,
		Seed:        seed,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	if baselineFile != "" {
		if base, err := readStage1Baseline(baselineFile); err == nil {
			snap.BaselineFile = baselineFile
			snap.BaselineStage1Seconds = base
		}
	}
	for i := 0; i < repeats; i++ {
		run, err := traceStage1Run(g, dataset, seed, p)
		if err != nil {
			return nil, err
		}
		snap.Runs = append(snap.Runs, run)
		if snap.BestStage1Seconds == 0 || run.Stage1Seconds < snap.BestStage1Seconds {
			snap.BestStage1Seconds = run.Stage1Seconds
		}
	}
	if snap.BaselineStage1Seconds > 0 && snap.BestStage1Seconds > 0 {
		snap.SpeedupVsBaseline = snap.BaselineStage1Seconds / snap.BestStage1Seconds
	}
	return snap, nil
}

// traceStage1Run partitions g once with telemetry on and distils the span
// totals relevant to the stage-I kernels.
func traceStage1Run(g *graph.Graph, dataset string, seed uint64, p int) (Stage1Run, error) {
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.ResetTrace()
		obs.Default.Reset()
	}()
	obs.ResetTrace()
	obs.Default.Reset()

	tlp := core.MustNew(core.Options{Seed: seed})
	start := time.Now()
	a, stats, err := tlp.PartitionStats(g, p)
	elapsed := time.Since(start).Seconds()
	if err != nil {
		return Stage1Run{}, fmt.Errorf("stage1 probe: TLP on %s p=%d: %w", dataset, p, err)
	}

	recs, _ := obs.TraceRecords()
	run := Stage1Run{
		Seconds: elapsed,
		Kernels: Stage1Kernels{
			Scan:    stats.Stage1Kernels.Scan,
			Bitset:  stats.Stage1Kernels.Bitset,
			Word:    stats.Stage1Kernels.Word,
			Gallop:  stats.Stage1Kernels.Gallop,
			Sampled: stats.Stage1Kernels.Sampled,
		},
		PartitionHash: fmt.Sprintf("%016x", stage1Hash(a)),
	}
	for _, s := range obs.SummarizeSpans(recs) {
		switch s.Name {
		case "tlp.stage1":
			run.Stage1Seconds = s.TotalSeconds
		case "tlp.stage2":
			run.Stage2Seconds = s.TotalSeconds
		case "tlp.s1.compact":
			run.CompactSeconds = s.TotalSeconds
		case "tlp.s1.intersect":
			run.IntersectSeconds = s.TotalSeconds
		}
	}
	return run, nil
}

// readStage1Baseline extracts tlp_stage1_seconds from a committed
// BENCH_obs.json-shaped file.
func readStage1Baseline(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var doc struct {
		TLPStage1Seconds float64 `json:"tlp_stage1_seconds"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, err
	}
	return doc.TLPStage1Seconds, nil
}
