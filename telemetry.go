package graphpart

import (
	"io"

	"github.com/graphpart/graphpart/internal/obs"
)

// Telemetry facade: the library's unified observability layer. All of it is
// record-only — enabling telemetry never changes what any partitioner or
// engine computes, only what is recorded about the computation — and the
// disabled path costs a few nanoseconds and zero allocations, so call sites
// stay instrumented unconditionally.

// TelemetryEnvVar is the environment variable that, when set to a non-empty
// value other than "0", enables telemetry at process start.
const TelemetryEnvVar = obs.EnvEnable

// EnableTelemetry turns on span tracing and metrics recording process-wide.
func EnableTelemetry() { obs.Enable() }

// DisableTelemetry turns telemetry back off; spans and metrics already
// recorded remain readable.
func DisableTelemetry() { obs.Disable() }

// TelemetryEnabled reports whether telemetry is currently recording.
func TelemetryEnabled() bool { return obs.Enabled() }

// ResetTelemetry clears the recorded trace and zeroes every metric.
func ResetTelemetry() {
	obs.ResetTrace()
	obs.Default.Reset()
}

// Stopwatch measures elapsed time through the telemetry clock seam; unlike
// spans it measures even when telemetry is disabled.
type Stopwatch = obs.Stopwatch

// StartWatch starts a stopwatch on the telemetry clock.
func StartWatch() Stopwatch { return obs.StartWatch() }

// WriteChromeTrace writes the recorded trace in Chrome trace-event JSON
// (load it at chrome://tracing or https://ui.perfetto.dev).
func WriteChromeTrace(w io.Writer) error { return obs.WriteChromeTrace(w) }

// WriteMetricsJSON writes a snapshot of every metric as indented JSON.
func WriteMetricsJSON(w io.Writer) error { return obs.Default.WriteJSON(w) }

// ProcessSnapshot is one process's serialisable telemetry state: its trace
// records, metrics, identity and clock epoch. Cluster workers ship these to
// the coordinator for merged-trace export.
type ProcessSnapshot = obs.ProcessSnapshot

// MetricsSnapshot is a point-in-time copy of a metrics registry.
type MetricsSnapshot = obs.MetricsSnapshot

// SkewInstant is one per-superstep barrier-skew measurement across the
// machines of a cluster run.
type SkewInstant = obs.SkewInstant
