// Package leaktest is the shutdown-path audit the socket stacks' tests
// share: a machine that has been torn down — cleanly, after an abort, or
// after a respawn — must have unwound every goroutine it started and
// closed every socket.
package leaktest

import (
	"os"
	"runtime"
	"testing"
	"time"
)

// Check records the process's goroutine and open-fd counts now and, when
// the test ends (after its other cleanups, so register it first), waits
// for both to settle back to that baseline, failing the test with a full
// goroutine dump if they do not. Not for parallel tests: the counts are
// process-wide.
func Check(t testing.TB) {
	t.Helper()
	baseGo, baseFD := runtime.NumGoroutine(), countFDs()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.GC() // finalize dropped conns so fd counts settle
			g, f := runtime.NumGoroutine(), countFDs()
			if g <= baseGo && f <= baseFD {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("leak: %d goroutines (base %d), %d fds (base %d)\n%s",
					g, baseGo, f, baseFD, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// countFDs returns the number of open file descriptors of this process,
// or zero where /proc is unavailable (the fd half of the audit is then
// vacuous).
func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(ents)
}
