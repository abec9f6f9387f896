package host

import "time"

// SetHandshakeTimeout shortens the handshake deadline for a test in the
// external test package and returns the function that restores it.
func SetHandshakeTimeout(d time.Duration) (restore func()) {
	old := handshakeTimeout
	handshakeTimeout = d
	return func() { handshakeTimeout = old }
}
