// Package gl009bad seeds determinism-certificate violations: facade entry
// points with call-graph paths to wall-clock reads and unseeded randomness,
// checked under the module root path so the entry-point selection applies.
package gl009bad

import (
	"math/rand" // want GL002
	"time"
)

// Partition is a facade entry point; the clock read sits two hops below it,
// so the certificate must carry the Partition -> prepare -> stamp route.
func Partition(n int) int {
	return prepare(n)
}

func prepare(n int) int {
	return n + stamp()
}

func stamp() int {
	return int(time.Now().UnixNano()) // want GL009 GL007
}

// Refine is a facade entry point drawing unseeded randomness directly.
func Refine(n int) int {
	return n + rand.Intn(7) // want GL009
}

// Chooser picks an index below n.
type Chooser interface {
	// Choose returns an index below n.
	Choose(n int) int
}

// RandomChooser draws from the global unseeded generator.
type RandomChooser struct{}

// Choose implements Chooser with an unseeded draw.
func (RandomChooser) Choose(n int) int {
	return rand.Intn(n) // want GL009
}

// RunChoice is a facade entry point; the interface call conservatively
// fans out to RandomChooser.Choose, so the certificate flags it with an
// interface-edge Via.
func RunChoice(c Chooser, n int) int {
	return c.Choose(n)
}
