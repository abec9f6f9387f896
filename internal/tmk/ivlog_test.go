package tmk

import (
	"testing"

	"sdsm/internal/wire"
)

// TestIntervalLogNeverMoves pins ivLog: interval idx comes back from
// at(idx) however far the log has grown, what it holds never moves as it
// grows, and a reset log fills again in the chunks it kept, clear of what
// it held, without allocating.
func TestIntervalLogNeverMoves(t *testing.T) {
	const n = 1000
	var l ivLog
	ivOf := func(idx int32) wire.Interval { return wire.Interval{Pages: make([]wire.PageRef, 1+idx%3)} }
	var first *wire.Interval
	for idx := int32(1); idx <= n; idx++ {
		l.push(ivOf(idx))
		if idx == 1 {
			first = &l.chunks[0][0]
		}
	}
	if first != &l.chunks[0][0] || l.n != n {
		t.Fatalf("the first interval moved as the log grew to %d", l.n)
	}
	for idx := int32(1); idx <= n; idx++ {
		if got := len(l.at(idx).Pages); got != int(1+idx%3) {
			t.Fatalf("at(%d) holds %d pages, pushed %d", idx, got, 1+idx%3)
		}
	}
	l.reset()
	for _, c := range l.chunks {
		for _, iv := range c {
			if iv.Pages != nil {
				t.Fatal("a reset log still holds an interval")
			}
		}
	}
	iv := ivOf(0)
	if allocs := testing.AllocsPerRun(1, func() {
		l.reset()
		for range n {
			l.push(iv)
		}
	}); allocs != 0 {
		t.Fatalf("refilling a reset log allocates %.0f times", allocs)
	}
}
