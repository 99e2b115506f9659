package wire

import "time"

// setupTimeout bounds every blocking step of mesh construction (listen,
// dial, handshake): a peer that never shows up turns into a clear error
// instead of a hang.
const setupTimeout = 30 * time.Second

// wallDeadline returns an I/O deadline d from now on the wall clock.
//
// This is the module's one sanctioned wall-clock read outside internal/obs:
// net.Conn deadlines are compared against the kernel's
// clock by the runtime poller, so they must be wall-clock by construction —
// routing them through the injectable obs.Clock would make socket I/O hang
// forever under a test's fake clock. graphlint's GL007 clock-seam
// rule allowlists this file for exactly this helper; keep every
// deadline computation in the package going through it so the exemption
// stays one line wide in practice.
func wallDeadline(d time.Duration) time.Time {
	return time.Now().Add(d)
}
