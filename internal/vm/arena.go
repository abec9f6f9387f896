package vm

import "fmt"

// GuardWords is the number of canary words an Arena keeps beyond each
// loaned data store. The guards are invisible to the borrower (the loan
// is capacity-capped before them) and are audited by CheckGuards after
// the job releases its memory: a job that scribbles past its address
// space — the cross-job bleed a warm pool must fear — lands in the
// guards before it lands in a neighbor's storage.
const GuardWords = 16

// Arena is warm storage for one rank at a time: an svc pool slot, or a
// fresh run's loan from harness. Whoever owns it threads it through
// every run on that rank, so steady-state runs reuse page frames, the
// address-space backing store, and directory arrays instead of growing
// the heap per run. An Arena backs one node of one machine at a time
// (the pool's slot discipline, harness's idle list); it needs no
// locking.
//
// Reuse rules, chosen so warm results stay bit-identical to fresh runs:
//
//   - The data store (TakeData) is zeroed on every take that recycles
//     it, so it reads exactly like make: application memory starts
//     blank.
//   - Page buffers (TakePage) are NOT zeroed: every consumer in package
//     vm fully overwrites the buffer before reading it (twin snapshots,
//     whole-page runs), so stale content is unobservable. This mirrors
//     the intra-run freelist Mem.free already trusts.
//   - Int32 arrays (TakeInt32) are NOT zeroed: the directory layer must
//     reinitialize every entry itself. Handing back stale owner hints
//     uninitialized is deliberate — it is exactly the surface the
//     per-job rank-subset regression test poisons.
type Arena struct {
	canary float64
	data   []float64   // the data store, guard capacity included
	words  int         // the loan's length while lent
	lent   bool        // data is out on loan
	pages  [][]float64 // idle page-sized buffers
	ints   [][]int32   // idle int32 arrays
}

// NewArena returns an empty warm arena.
func NewArena() *Arena { return &Arena{} }

// SetCanary installs the canary value for the next loan; call it while
// nothing is lent. The pool gives each job a distinct canary, and harness
// each fresh run, so a guard violation names whose storage was overrun.
func (a *Arena) SetCanary(c float64) { a.canary = c }

// TakeData lends a zeroed data store of the given word count: the idle
// store, cleared, when its capacity fits, else a new one from make —
// already zero — in its place, so an idle arena holds the largest image
// it served. The returned slice is capacity-capped at words: an append
// cannot silently grow into the guard region. An arena lends one store
// at a time: call ReleaseData before the next take.
func (a *Arena) TakeData(words int) []float64 {
	if cap(a.data) >= words+GuardWords {
		a.data = a.data[:cap(a.data)]
		clear(a.data[:words])
	} else {
		a.data = make([]float64, words+GuardWords)
	}
	for i := words; i < words+GuardWords; i++ {
		a.data[i] = a.canary
	}
	a.words, a.lent = words, true
	return a.data[:words:words]
}

// TakePage lends a page-sized buffer without zeroing it; the caller must
// fully overwrite it before reading (see the Arena reuse rules).
func (a *Arena) TakePage(n int) []float64 {
	if l := len(a.pages); l > 0 {
		pg := a.pages[l-1]
		a.pages[l-1] = nil
		a.pages = a.pages[:l-1]
		if cap(pg) >= n {
			return pg[:n]
		}
	}
	return make([]float64, n)
}

// RecyclePages accepts a batch of idle page buffers back into the arena.
func (a *Arena) RecyclePages(bufs [][]float64) {
	for _, b := range bufs {
		if b != nil {
			a.pages = append(a.pages, b)
		}
	}
}

// TakeInt32 lends an int32 array of length n with UNSPECIFIED contents —
// possibly a previous job's values. Callers own initialization.
func (a *Arena) TakeInt32(n int) []int32 {
	for i, s := range a.ints {
		if cap(s) >= n {
			a.ints[i] = a.ints[len(a.ints)-1]
			a.ints[len(a.ints)-1] = nil
			a.ints = a.ints[:len(a.ints)-1]
			return s[:n]
		}
	}
	return make([]int32, n)
}

// RecycleInt32 accepts an int32 array back into the arena.
func (a *Arena) RecycleInt32(s []int32) {
	if s != nil {
		a.ints = append(a.ints, s)
	}
}

// CheckGuards audits the outstanding loan's guard words against the
// canary. It must run before ReleaseData ends the loan. A mismatch is
// cross-job bleed (or an in-job overrun) and harness treats it as fatal
// for the offending run.
func (a *Arena) CheckGuards() error {
	if !a.lent {
		return nil
	}
	for i, v := range a.data[a.words : a.words+GuardWords] {
		if v != a.canary {
			return fmt.Errorf("vm: arena guard word %d of %d-word store corrupted: got %v, want canary %v",
				i, a.words, v, a.canary)
		}
	}
	return nil
}

// ReleaseData ends the outstanding data loan, keeping the store idle for
// the next run. Call CheckGuards first; release does not audit.
func (a *Arena) ReleaseData() { a.lent = false }

// Idle reports the arena's idle inventory (data stores — 0 or 1 — page
// buffers, int32 arrays), for tests that pin warm reuse actually
// happening.
func (a *Arena) Idle() (data, pages, ints int) {
	if a.data != nil && !a.lent {
		data = 1
	}
	return data, len(a.pages), len(a.ints)
}

// Loans reports the number of outstanding data loans: 0 or 1.
func (a *Arena) Loans() int {
	if a.lent {
		return 1
	}
	return 0
}
