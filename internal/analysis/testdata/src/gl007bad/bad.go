// Package gl007bad holds GL007 violations: wall-clock reads (time.Now and
// the derived time.Since / time.Until) outside the internal/obs clock seam.
package gl007bad

import "time"

// Elapsed measures directly against the system clock.
func Elapsed(start time.Time) float64 {
	return time.Since(start).Seconds() // want GL007
}

// Remaining counts down against the system clock.
func Remaining(deadline time.Time) time.Duration {
	return time.Until(deadline) // want GL007
}

// ArmDeadline arms a socket deadline from the wall clock. This exact
// construct is exempt inside internal/wire (see the gl007wire snippet) but
// flagged everywhere else.
func ArmDeadline(c Conn, d time.Duration) error {
	return c.SetDeadline(time.Now().Add(d)) // want GL007
}

// Conn is the deadline-bearing slice of net.Conn, declared locally so the
// snippet does not need the net import.
type Conn interface {
	SetDeadline(t time.Time) error
}
