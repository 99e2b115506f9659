package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"

	"github.com/graphpart/graphpart/internal/gen"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/obs"
)

// An untraced run builds its inputs at least setupRepeats times, and cheap
// set-ups again until setupSeconds have gone by (at most maxSetups times);
// setup_s is the median, so one slow set-up does not move it.
const (
	setupRepeats = 3
	setupSeconds = 2.0
	maxSetups    = 9
)

// config is what a workload needs from the command line.
type config struct {
	seed    uint64
	seconds float64
	traced  bool
	// small swaps every dataset for its scaled-down variant (G5 -> G5s);
	// tests use it.
	small bool
	// corrupt damages every output before it is checked; tests use it to
	// prove the checks fail.
	corrupt bool
}

// dataset is one generated input graph.
type dataset struct {
	name string
	g    *graph.Graph
}

// generate builds the named datasets from the seed, one gen.generate span
// each.
func (c *config) generate(rec *recorder, notations ...string) ([]dataset, error) {
	out := make([]dataset, 0, len(notations))
	for _, n := range notations {
		d, err := c.lookup(n)
		if err != nil {
			return nil, err
		}
		var g *graph.Graph
		_ = rec.span("gen.generate", func() error { g = d.Generate(c.seed); return nil })
		out = append(out, dataset{name: d.Notation, g: g})
	}
	return out, nil
}

func (c *config) lookup(notation string) (gen.Dataset, error) {
	if !c.small {
		return gen.DatasetByNotation(notation)
	}
	for _, d := range gen.SmallDatasets() {
		if d.Notation == notation+"s" {
			return d, nil
		}
	}
	return gen.Dataset{}, fmt.Errorf("no small dataset for %s", notation)
}

// recorder collects the per-layer figures of one set-up or pass. Counts are
// recorded always; spans only when traced, so untraced passes time nothing
// but the pass itself.
type recorder struct {
	traced bool
	spans  []span
	// counts are deterministic and must repeat exactly in every pass.
	counts map[string]float64
	// observed are measured values that vary run to run.
	observed map[string]float64
}

// span is one timed call into a layer. Layer calls never nest, so a span's
// self time is its whole duration.
type span struct {
	name       string
	seconds    float64
	allocBytes uint64
	mallocs    uint64
}

func newRecorder(traced bool) *recorder {
	return &recorder{traced: traced, counts: map[string]float64{}, observed: map[string]float64{}}
}

// span runs fn, the call into one layer, and records it under name. The
// heap statistics are read outside the timed interval.
func (r *recorder) span(name string, fn func() error) error {
	if !r.traced {
		return fn()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	bytes0, mallocs0 := ms.TotalAlloc, ms.Mallocs
	w := obs.StartWatch()
	err := fn()
	secs := w.Seconds()
	runtime.ReadMemStats(&ms)
	r.spans = append(r.spans, span{name: name, seconds: secs,
		allocBytes: ms.TotalAlloc - bytes0, mallocs: ms.Mallocs - mallocs0})
	return err
}

// count adds v to the named per-layer count.
func (r *recorder) count(name string, v float64) { r.counts[name] += v }

// observe records a measured per-layer value.
func (r *recorder) observe(name string, v float64) { r.observed[name] = v }

// spanFigures sums the recorded spans into per-layer metrics: seconds by
// layer ("<span>_s") and the heap allocated inside TLP and METIS calls.
func (r *recorder) spanFigures() map[string]float64 {
	out := map[string]float64{}
	for _, s := range r.spans {
		out[s.name+"_s"] += s.seconds
		switch s.name {
		case "core.partition":
			out["core.alloc_bytes"] += float64(s.allocBytes)
		case "metis.vertex_partition", "metis.derive":
			out["metis.alloc_bytes"] += float64(s.allocBytes)
			out["metis.mallocs"] += float64(s.mallocs)
		}
	}
	return out
}

// coveredSeconds is the time the pass spent inside layer calls.
func (r *recorder) coveredSeconds() float64 {
	total := 0.0
	for _, s := range r.spans {
		total += s.seconds
	}
	return total
}

// median returns the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// peakRSS returns this process's peak resident set in bytes plus that of its
// largest finished child: a cluster-tcp worker, and nothing on the other
// workloads, which start no process. Linux reports ru_maxrss in KiB.
func peakRSS() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	kib := ru.Maxrss
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(kib+ru.Maxrss) * 1024, nil
}
