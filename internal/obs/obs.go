// Package obs is the repository's unified telemetry layer: a metrics
// registry (atomic counters and gauges), span-based tracing into a bounded
// in-memory ring (exportable as Chrome trace-event JSON), and the
// single sanctioned clock seam.
//
// Two contracts govern every instrumentation site:
//
//   - Zero overhead when off. Telemetry is disabled by default; a disabled
//     call site is one atomic load plus a branch and performs zero heap
//     allocations (asserted by alloc_test.go). Attribute constructors pack
//     values into a flat struct — no interface boxing — and spans copy
//     attributes into fixed arrays so variadic argument slices never escape
//     to the heap.
//
//   - Record-only. Telemetry observes; it never influences control flow or
//     output bytes. Instrumented subsystems must produce bit-identical
//     results with tracing on and off (the harness determinism tests assert
//     exactly that), so nothing in this package returns data an algorithm
//     could branch on.
//
// The clock seam (Clock, SetClock, Now, Since, Stopwatch) exists so that the
// rest of the module never calls time.Now directly — graphlint rule GL007
// enforces that; internal/obs is the one sanctioned clock site outside
// reporting mains.
package obs

import (
	"os"
	"sync/atomic"
	"time"
)

// EnvEnable is the environment variable that switches telemetry on at
// process start when set to "1" (used by the CI telemetry job).
const EnvEnable = "GRAPHPART_TELEMETRY"

var enabled atomic.Bool

func init() {
	if os.Getenv(EnvEnable) == "1" {
		Enable()
	}
}

// Enabled reports whether telemetry is currently recording.
func Enabled() bool { return enabled.Load() }

// Enable switches telemetry on. The trace epoch is (re)anchored so span
// timestamps are relative to the moment recording started.
func Enable() {
	anchorEpoch()
	enabled.Store(true)
}

// Disable switches telemetry off. Already-recorded spans and metric values
// are retained until ResetTrace / Registry.Reset.
func Disable() { enabled.Store(false) }

// Clock is the time source behind Now/Since/Stopwatch. Tests substitute a
// fake to make span durations deterministic.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
}

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// clockBox holds the active Clock behind an atomic pointer so SetClock is
// safe against concurrent Now calls.
type clockBox struct{ c Clock }

// activeClock is set via a variable initializer, not an init function, so it
// is ready before the EnvEnable init above can call Enable -> Now.
var activeClock = func() *atomic.Pointer[clockBox] {
	var p atomic.Pointer[clockBox]
	p.Store(&clockBox{c: systemClock{}})
	return &p
}()

// SetClock installs c as the telemetry time source; nil restores the system
// clock. Only tests should call this.
func SetClock(c Clock) {
	if c == nil {
		c = systemClock{}
	}
	activeClock.Store(&clockBox{c: c})
}

// Now returns the current time from the active Clock.
func Now() time.Time { return activeClock.Load().c.Now() }

// Since returns the elapsed time from t per the active Clock.
func Since(t time.Time) time.Duration { return Now().Sub(t) }

// Stopwatch measures elapsed wall time through the clock seam. Unlike spans
// it is NOT gated on Enabled: callers that report elapsed seconds (the
// harness Seconds columns, CLI summaries) need a measurement whether or not
// tracing is recording.
type Stopwatch struct {
	start time.Time
}

// StartWatch starts a stopwatch at the current clock reading.
func StartWatch() Stopwatch { return Stopwatch{start: Now()} }

// Elapsed returns the time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration { return Since(s.start) }

// Seconds returns the elapsed time in seconds.
func (s Stopwatch) Seconds() float64 { return s.Elapsed().Seconds() }
