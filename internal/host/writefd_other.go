//go:build !unix

package host

import "errors"

// writeFD has no non-blocking form off unix: every frame goes through
// FrameQueue's writer goroutine.
func writeFD(uintptr, []byte) (int, error) { return 0, errors.ErrUnsupported }
