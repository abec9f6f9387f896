package tmk

import (
	"testing"
	"time"

	"sdsm/internal/shm"
)

// TestStaggeredLockChains reproduces the IS merge pattern: B buckets in
// sections of B/n words, each section visited by every node under its
// lock in staggered order, accumulating +1 per visit, with a zero phase
// per iteration. Checks the final sums.
func staggeredRun(t *testing.T, n, sectionWords, iters int) {
	t.Helper()
	total := n * sectionWords
	s := testSystem(n, total)
	run(t, s, func(nd *Node) {
		for it := 0; it < iters; it++ {
			// zero own section under own lock
			lo := nd.ID * sectionWords
			nd.Acquire(nd.ID)
			nd.Mem.EnsureWrite(nd.p, shm.Region{Lo: lo, Hi: lo + sectionWords})
			d := nd.Mem.Data()
			for t := lo; t < lo+sectionWords; t++ {
				d[t] = 0
			}
			nd.Release(nd.ID)
			nd.p.Advance(time.Duration(nd.ID+1) * 37 * time.Microsecond) // skewed compute
			nd.Barrier(3)
			for ph := 0; ph < n; ph++ {
				sec := (nd.ID + ph) % n
				slo := sec * sectionWords
				nd.Acquire(sec)
				nd.Mem.EnsureWrite(nd.p, shm.Region{Lo: slo, Hi: slo + sectionWords})
				nd.Mem.EnsureRead(nd.p, shm.Region{Lo: slo, Hi: slo + sectionWords})
				d := nd.Mem.Data()
				for t := slo; t < slo+sectionWords; t++ {
					d[t] += float64(nd.ID + 1)
				}
				nd.p.Advance(time.Duration(sectionWords) * 100 * time.Nanosecond)
				nd.Release(sec)
			}
			nd.Barrier(1)
			// read everything (rank phase)
			nd.Mem.EnsureRead(nd.p, shm.Region{Lo: 0, Hi: total})
			want := 0.0
			for w := 1; w <= n; w++ {
				want += float64(w)
			}
			for t := 0; t < total; t++ {
				if d := nd.Mem.Data()[t]; d != want {
					nd.Mem.Data()[t] = d // keep
					if testing.Verbose() {
						// limited reporting
					}
					// report through testing
					if t < 10000 {
						// record first few
					}
					// fail
					panic2(nd.ID, it, t, d, want)
				}
			}
			nd.Barrier(2)
		}
	})
}

var failf func(format string, args ...any)

func panic2(id, it, w int, got, want float64) {
	if failf != nil {
		failf("node %d iter %d word %d: got %v want %v", id, it, w, got, want)
	}
}

func TestStaggeredAligned(t *testing.T) {
	failf = t.Errorf
	defer func() { failf = nil }()
	staggeredRun(t, 4, shm.PageWords, 3) // page-aligned sections
}

func TestStaggeredFalseShared(t *testing.T) {
	failf = t.Errorf
	defer func() { failf = nil }()
	staggeredRun(t, 8, shm.PageWords/2, 3) // two sections per page
}
