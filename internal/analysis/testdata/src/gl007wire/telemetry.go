package gl007wire

import "time"

// stampSnapshot is the twin of armDeadline in the wrong file: internal/wire
// is only exempt inside deadline.go, so a wall-clock read on the
// telemetry-upload path (which must route through the obs clock seam to
// keep worker snapshots deterministic under an injected clock) draws the
// GL007 seam diagnostic.
func stampSnapshot() int64 {
	return time.Now().UnixNano() // want GL007
}

// drainElapsed shows the derived helpers are held to the seam here too.
func drainElapsed(start time.Time) float64 {
	return time.Since(start).Seconds() // want GL007
}
