package core

import (
	"math"
	"time"

	"github.com/graphpart/graphpart/internal/obs"
)

// Default-registry counters fed once per run from the Stats the run already
// maintains — telemetry reads algorithm state, never the other way around.
var (
	mPartitionRuns    = obs.Default.Counter("tlp.runs")
	mRounds           = obs.Default.Counter("tlp.rounds")
	mStage1Selections = obs.Default.Counter("tlp.stage1_selections")
	mStage2Selections = obs.Default.Counter("tlp.stage2_selections")
	mReseeds          = obs.Default.Counter("tlp.reseeds")
	mSweptEdges       = obs.Default.Counter("tlp.swept_edges")
	mKernelScan       = obs.Default.Counter("tlp.s1.kernel_scan")
)

// recordRunMetrics publishes a finished run's stats to the metrics
// registry.
func recordRunMetrics(stats *Stats) {
	mPartitionRuns.Add(1)
	mRounds.Add(int64(stats.Rounds))
	mStage1Selections.Add(int64(stats.Stage1Selections))
	mStage2Selections.Add(int64(stats.Stage2Selections))
	mReseeds.Add(int64(stats.Reseeds))
	mSweptEdges.Add(int64(stats.SweptEdges))
	mKernelScan.Add(stats.Stage1Kernels.Scan)
}

// kernelStopwatch accumulates kernel-phase wall clock through the obs clock
// seam. The zero value (telemetry off) makes every lap free.
type kernelStopwatch struct {
	last time.Time
	ok   bool
}

// kernelWatch starts a stopwatch only while telemetry records, so the
// disabled hot path pays one atomic load and no clock reads.
func (st *runState) kernelWatch() kernelStopwatch {
	if !obs.Enabled() {
		return kernelStopwatch{}
	}
	return kernelStopwatch{last: obs.Now(), ok: true}
}

// lap returns the time since the previous lap (or start) and re-arms.
func (w *kernelStopwatch) lap() time.Duration {
	if !w.ok {
		return 0
	}
	now := obs.Now()
	d := now.Sub(w.last)
	w.last = now
	return d
}

// roundTrace threads the tlp.round span and its stage-segment children
// through one growth round. Stage segments ("tlp.stage1" / "tlp.stage2")
// open on the first selection and flip when the stage policy flips; the
// 1->2 flip additionally emits a "tlp.stage_transition" instant carrying
// the modularity trajectory at the crossing. Everything here is
// record-only: it reads ein/eout/frontier and never feeds back.
type roundTrace struct {
	round  obs.Span
	seg    obs.Span
	inSeg  bool
	stage1 bool
}

// beginRoundTrace opens round k's span under the partition root span.
func beginRoundTrace(parent *obs.Span, k int) roundTrace {
	return roundTrace{round: parent.Child("tlp.round", obs.Int("round", k))}
}

// stage notes that the next selection runs under stage 1 or stage 2,
// opening or flipping the stage segment span.
func (rt *roundTrace) stage(st *runState, stage1 bool) {
	if rt.inSeg && rt.stage1 == stage1 {
		return
	}
	if rt.inSeg {
		rt.closeSeg(st)
		if rt.stage1 && !stage1 {
			mod := math.Inf(1)
			if st.eout > 0 {
				mod = float64(st.ein) / float64(st.eout)
			}
			rt.round.Event("tlp.stage_transition",
				obs.Int64("ein", st.ein), obs.Int64("eout", st.eout),
				obs.Float("modularity", mod),
				obs.Int("frontier", len(st.frontierList)))
		}
	}
	name := "tlp.stage2"
	if stage1 {
		name = "tlp.stage1"
	}
	rt.seg = rt.round.Child(name)
	rt.inSeg, rt.stage1 = true, stage1
}

func (rt *roundTrace) closeSeg(st *runState) {
	rt.seg.EndWith(obs.Int64("ein", st.ein), obs.Int64("eout", st.eout))
	rt.inSeg = false
}

// end closes any open stage segment and the round span, stamping the
// round's final growth state. The accumulated stage-I kernel phases are
// flushed as tlp.s1.* segments under the round span (one per phase per
// round — per-absorption spans would overflow the trace ring).
func (rt *roundTrace) end(st *runState) {
	if rt.inSeg {
		rt.closeSeg(st)
	}
	rt.round.Segment("tlp.s1.compact", st.tCompact)
	rt.round.Segment("tlp.s1.intersect", st.tIntersect)
	st.tCompact, st.tIntersect = 0, 0
	rt.round.EndWith(obs.Int64("ein", st.ein), obs.Int64("eout", st.eout),
		obs.Int("frontier", len(st.frontierList)))
}
