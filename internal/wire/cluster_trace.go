package wire

import (
	"io"
	"sync/atomic"

	"github.com/graphpart/graphpart/internal/obs"
)

// Trace-context frame layout (frameTrace, coordinator -> worker):
//
//	[u16 protocol version][u64 trace id][u8 flags]
//
// The version is checked by the worker before it trusts any later frame;
// flags bit 0 (traceFlagCollect) requests the drain-time telemetry upload.
const (
	traceCtxSize     = 2 + 8 + 1
	traceFlagCollect = 1 << 0
)

// traceSeq disambiguates trace ids minted within one clock tick.
var traceSeq atomic.Uint64

// newTraceID mints a cluster-run trace id. Uniqueness is what matters —
// the id only labels spans and snapshots (record-only), so deriving it from
// the telemetry clock keeps wire free of extra wall-clock reads.
func newTraceID() uint64 {
	return uint64(obs.Now().UnixNano()) ^ traceSeq.Add(1)<<48
}

// ClusterTelemetry is the merged observability of one traced cluster run:
// the run's trace id plus one ProcessSnapshot per worker process, shipped
// over the control connection at drain. The coordinator's own snapshot is
// captured lazily at export time so it includes the full run span.
type ClusterTelemetry struct {
	// TraceID labels every process's spans for this run.
	TraceID uint64
	// Workers holds one snapshot per machine, in machine order (lane id =
	// machine + 1; lane 0 is the coordinator).
	Workers []obs.ProcessSnapshot
}

// snapshots returns the coordinator's current snapshot (lane 0) followed by
// the worker snapshots.
func (ct *ClusterTelemetry) snapshots() []obs.ProcessSnapshot {
	snaps := make([]obs.ProcessSnapshot, 0, len(ct.Workers)+1)
	snaps = append(snaps, obs.CaptureSnapshot("coordinator", 0))
	return append(snaps, ct.Workers...)
}

// BarrierSkew measures per-superstep barrier skew across the worker
// processes: for each superstep, the spread between the first and the last
// machine to enter it (from the wire.worker.superstep span entry times).
func (ct *ClusterTelemetry) BarrierSkew() []obs.SkewInstant {
	return obs.ComputeBarrierSkew(ct.Workers, "wire.worker.superstep")
}

// MergedMetrics aggregates the worker metric snapshots into one
// machine-labelled view (see obs.MergeSnapshots).
func (ct *ClusterTelemetry) MergedMetrics() obs.MetricsSnapshot {
	return obs.MergeSnapshots(ct.Workers)
}

// WriteChromeTrace writes the whole cluster run as one Chrome trace-event
// document: one process lane per OS process (coordinator plus every
// worker), span parentage preserved within each lane, and a barrier-skew
// instant per superstep.
func (ct *ClusterTelemetry) WriteChromeTrace(w io.Writer) error {
	return obs.WriteMergedChromeTrace(w, ct.snapshots(), ct.BarrierSkew())
}
