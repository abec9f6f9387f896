//go:build unix

package host

import "syscall"

// writeFD makes one write(2) to a socket the net poller keeps
// non-blocking: FrameQueue's inline write.
func writeFD(fd uintptr, p []byte) (int, error) { return syscall.Write(int(fd), p) }
