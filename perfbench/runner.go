package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"math"
	"runtime"
	"sort"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/obs"
	"github.com/graphpart/graphpart/internal/partition"
)

// endToEnd lists the metrics of an untraced run, with their units.
var endToEnd = []struct{ name, unit string }{
	{"pass_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_bytes", "bytes"},
	{"rf_mean", "ratio"},
	{"balance_max", "ratio"},
}

// perLayer lists the metrics of a traced run, with their units. Every
// workload reports all of them; a layer a workload does not call reads 0.
var perLayer = []struct{ name, unit string }{
	{"gen.generate_s", "s"},
	{"core.partition_s", "s"},
	{"core.alloc_bytes", "bytes"},
	{"core.s1_selections", "count"},
	{"core.s2_selections", "count"},
	{"core.s1_intersections", "count"},
	{"core.kernel_scan", "count"},
	{"core.kernel_gallop", "count"},
	{"core.kernel_bitset", "count"},
	{"core.kernel_word", "count"},
	{"core.intersections_per_s1_selection", "ratio"},
	{"partition.compute_s", "s"},
	{"metis.vertex_partition_s", "s"},
	{"metis.derive_s", "s"},
	{"metis.alloc_bytes", "bytes"},
	{"metis.mallocs", "count"},
	{"refine.run_s", "s"},
	{"refine.passes", "count"},
	{"refine.moves", "count"},
	{"refine.swaps", "count"},
	{"refine.replicas_removed", "count"},
	{"refine.replicas_per_op", "ratio"},
	{"engine.build_s", "s"},
	{"engine.pagerank_s", "s"},
	{"engine.cc_s", "s"},
	{"engine.supersteps", "count"},
	{"engine.gather_messages", "count"},
	{"engine.apply_messages", "count"},
	{"engine.activate_messages", "count"},
	{"engine.bytes", "bytes"},
	{"engine.superstep_mean_s", "s"},
	{"wire.cluster_s", "s"},
	{"wire.framed_bytes", "bytes"},
	{"wire.control_bytes", "bytes"},
	{"wire.mem_run_s", "s"},
	{"wire.overhead_ratio", "ratio"},
	{"wire.barrier_skew_max_s", "s"},
	{"trace.coverage", "ratio"},
	{"obs.overhead_ratio", "ratio"},
}

// runWorkload sets the workload up, makes one untimed warm-up pass, then
// timed passes until cfg.seconds have elapsed, checking every output
// outside the timed section. A traced run alternates untraced and traced
// passes so obs.overhead_ratio compares passes of the same process.
func runWorkload(w workload, cfg *config, stdout, log io.Writer) (*report, error) {
	var pass passFunc
	var setupSecs []float64
	var setupRec *recorder
	total := 0.0
	for len(setupSecs) == 0 || (!cfg.traced && len(setupSecs) < maxSetups &&
		(len(setupSecs) < setupRepeats || total < setupSeconds)) {
		pass = nil
		runtime.GC()
		setupRec = newRecorder(cfg.traced)
		sw := obs.StartWatch()
		var err error
		if pass, err = w.setup(cfg, setupRec); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupSecs = append(setupSecs, sw.Seconds())
		total += setupSecs[len(setupSecs)-1]
	}

	chk := &checker{cfg: cfg, log: log, hashes: map[string]uint64{}}
	passOnce := func(traced bool) (float64, *recorder) {
		rec := newRecorder(traced)
		runtime.GC()
		if traced {
			obs.ResetTrace()
			obs.Enable()
		}
		sw := obs.StartWatch()
		out, err := pass(rec)
		secs := sw.Seconds()
		obs.Disable()
		chk.check(out, err, rec)
		return secs, rec
	}
	passOnce(false) // warm-up

	// Passes run while the next one, as long as the last, still fits in
	// cfg.seconds; at least one of each kind runs.
	var plain, traced []float64
	var recs []*recorder
	loop := obs.StartWatch()
	last := 0.0
	for i := 0; loop.Seconds()+last <= cfg.seconds || len(plain) == 0 || (cfg.traced && len(recs) == 0); i++ {
		tracedPass := cfg.traced && i%2 == 1
		start := loop.Seconds()
		secs, rec := passOnce(tracedPass)
		last = loop.Seconds() - start
		if tracedPass {
			traced = append(traced, secs)
			recs = append(recs, rec)
		} else {
			plain = append(plain, secs)
		}
	}

	rep := &report{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed,
		Metrics: map[string]metric{}}
	sort.Float64s(plain)
	fmt.Fprintf(stdout, "# pass_s samples=%d min=%.4f median=%.4f max=%.4f; setup_s samples=%v\n",
		len(plain), plain[0], median(plain), plain[len(plain)-1], setupSecs)
	for _, name := range chk.names {
		fmt.Fprintf(stdout, "# hash %s %016x\n", name, chk.hashes[name])
	}
	if !cfg.traced {
		rss, err := peakRSS()
		if err != nil {
			return nil, err
		}
		values := map[string]float64{
			"pass_s":         median(plain),
			"setup_s":        median(setupSecs),
			"peak_rss_bytes": rss,
			"rf_mean":        chk.rfMean,
			"balance_max":    chk.balanceMax,
		}
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
			rep.order = append(rep.order, m.name)
		}
		return rep, nil
	}
	values := layerValues(setupRec, recs, traced, plain)
	for _, m := range perLayer {
		rep.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
		rep.order = append(rep.order, m.name)
	}
	return rep, nil
}

// layerValues turns the set-up recorder and the traced passes' recorders
// into the per-layer metrics: set-up figures plus the median pass figures.
func layerValues(setup *recorder, recs []*recorder, traced, plain []float64) map[string]float64 {
	figs := make([]map[string]float64, len(recs))
	for i, rec := range recs {
		f := rec.spanFigures()
		for name, x := range rec.observed {
			f[name] = x
		}
		if f["wire.mem_run_s"] > 0 {
			f["wire.overhead_ratio"] = f["wire.cluster_s"] / f["wire.mem_run_s"]
		}
		f["trace.coverage"] = rec.coveredSeconds() / traced[i]
		figs[i] = f
	}
	v := map[string]float64{}
	for _, m := range perLayer {
		var xs []float64
		for _, f := range figs {
			if x, ok := f[m.name]; ok {
				xs = append(xs, x)
			}
		}
		v[m.name] = median(xs)
	}
	// Set-up work is done once; its layers add to the pass figures.
	for name, x := range setup.spanFigures() {
		v[name] += x
	}
	for name, x := range setup.counts {
		v[name] += x
	}
	for name, x := range recs[len(recs)-1].counts {
		v[name] += x
	}
	v["core.intersections_per_s1_selection"] = ratio(v["core.s1_intersections"], v["core.s1_selections"])
	v["refine.replicas_per_op"] = ratio(v["refine.replicas_removed"], v["refine.moves"]+v["refine.swaps"])
	v["engine.superstep_mean_s"] = ratio(v["engine.pagerank_s"]+v["engine.cc_s"], v["engine.supersteps"])
	v["obs.overhead_ratio"] = ratio(median(traced), median(plain))
	return v
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checker verifies every pass's outputs and counts the operations.
type checker struct {
	cfg               *config
	log               io.Writer
	attempted, failed int
	// hashes holds each output's assignment hash from the first pass; names
	// keeps their order.
	hashes map[string]uint64
	names  []string
	// counts are the first pass's per-layer counts.
	counts             map[string]float64
	rfMean, balanceMax float64
}

// op records one checked operation.
func (c *checker) op(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if c.failed <= 10 {
			fmt.Fprintf(c.log, "perfbench: check failed: "+format+"\n", args...)
		}
	}
}

// check verifies one pass: every partitioning is complete and within
// capacity with the same hash as in the first pass, every vertex-program
// result is bit-identical to its oracle, and the per-layer counts repeat.
func (c *checker) check(out *passOut, err error, rec *recorder) {
	if err != nil {
		c.op(false, "pass: %v", err)
		return
	}
	rfSum, balMax := 0.0, 0.0
	for _, pt := range out.parts {
		a := pt.a
		if c.cfg.corrupt {
			a = corruptAssignment(a)
		}
		verr := partition.Validate(pt.g, a, partition.ValidateOptions{})
		c.op(verr == nil, "%s: %v", pt.name, verr)
		h := assignmentHash(a)
		if want, ok := c.hashes[pt.name]; ok {
			c.op(h == want, "%s: assignment hash %016x, first pass %016x", pt.name, h, want)
		} else {
			c.hashes[pt.name] = h
			c.names = append(c.names, pt.name)
		}
		rfSum += pt.m.ReplicationFactor
		balMax = math.Max(balMax, pt.m.Balance)
	}
	c.rfMean, c.balanceMax = rfSum/float64(len(out.parts)), balMax
	for _, r := range out.runs {
		values := r.values
		if c.cfg.corrupt {
			values = append([]float64{values[0] + 1}, values[1:]...)
		}
		c.op(sameValues(values, r.want.values) && r.steps == r.want.steps,
			"%s: values or superstep count (%d, oracle %d) differ from the sequential oracle",
			r.name, r.steps, r.want.steps)
	}
	if c.counts == nil {
		c.counts = rec.counts
	} else {
		c.op(maps.Equal(rec.counts, c.counts), "per-layer counts %v, first pass %v", rec.counts, c.counts)
	}
}

// corruptAssignment returns a copy of a with every edge in partition 0.
func corruptAssignment(a *partition.Assignment) *partition.Assignment {
	bad := a.Clone()
	for e := 0; e < bad.NumEdges(); e++ {
		bad.Assign(graph.EdgeID(e), 0)
	}
	return bad
}

// assignmentHash is FNV-1a 64 over every edge's partition id as a
// little-endian int32 (unassigned as -1), the recipe of the core and refine
// golden tests.
func assignmentHash(a *partition.Assignment) uint64 {
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

// sameValues reports bit-identity of two value vectors.
func sameValues(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}
