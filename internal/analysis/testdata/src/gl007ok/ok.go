// Package gl007ok uses the wall clock directly and is clean only under the
// exempt import path internal/obs, the clock seam itself.
package gl007ok

import "time"

// Stamp reads the wall clock, as the seam may.
func Stamp() (time.Time, time.Duration) {
	now := time.Now()
	return now, time.Since(now)
}
