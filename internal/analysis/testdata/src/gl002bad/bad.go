// Package gl002bad holds GL002 violations: unseeded randomness outside
// internal/rng. The time.Now read is a GL007 clock-seam bypass, not a GL002
// one.
package gl002bad

import (
	"math/rand" // want GL002
	"time"
)

// Jitter mixes wall-clock state into a computation.
func Jitter() int64 {
	return time.Now().UnixNano() + int64(rand.Intn(10)) // want GL007
}
