package vm

import (
	"fmt"

	"sdsm/internal/shm"
	"sdsm/internal/slab"
)

// GuardWords is the number of canary words an Arena keeps beyond each
// loaned data store. The guards are invisible to the borrower (the loan
// is capacity-capped before them) and are audited by CheckGuards after
// the job releases its memory: a job that scribbles past its address
// space — the cross-job bleed warm reuse must fear — lands in the
// guards before it lands in a neighbor's storage.
const GuardWords = 16

// Arena is the storage behind one node memory: the address-space backing
// store, page buffers, the Mem's per-page tables and the slabs a diff's
// runs are carved from. Every Mem has one (NewWarm; New makes a private
// one). A DSM run borrows its arenas, inside its ranks' tmk.Stores, from
// harness's idle list, the one owner of warm storage in the process, so
// steady-state runs reuse that storage instead of growing the heap per
// run. An Arena backs one node of one machine at a time; it needs no
// locking.
//
// An arena lends only what its borrower overwrites or what it zeroes on
// loan, under three reuse rules chosen so warm results stay bit-identical
// to fresh runs:
//
//   - The data store (TakeData) and the per-page tables (NewWarm) are
//     zeroed on every loan, so they read exactly like make: application
//     memory starts blank and every page NoAccess, twinless, unbatched.
//   - Page buffers (TakePage) and slab carves (slab.Slab.Take) are NOT zeroed:
//     every consumer fully overwrites its buffer or carve before reading
//     it (twin snapshots, whole-page runs, a diff's runs and values), so
//     stale content is unobservable, whether it was left earlier in the
//     same run or by a previous one.
//   - Release rewinds the slabs, first clearing what was carved from each
//     one whose values hold pointers (run lists, twins), so a released
//     machine keeps no storage alive through its arena.
//
// State a borrower would have to initialize itself, such as tmk's scale
// directory, is made by the mode that owns it, never lent.
type Arena struct {
	canary float64
	data   []float64   // the data store, guard capacity included
	words  int         // the loan's length while lent
	lent   bool        // data is out on loan
	pages  [][]float64 // idle page-sized buffers

	// What a Mem carves: its diffs' run lists and values (DiffAgainstTwin,
	// WholePageRuns) and its per-page tables (NewWarm).
	runs  slab.Slab[Run]
	vals  slab.Slab[float64]
	prots slab.Slab[Prot] // protection and pre-batch protection
	twins slab.Slab[[]float64]
	exts  slab.Slab[int16] // write extents, low and high
	marks slab.Slab[bool]  // in-batch marks
	batch slab.Slab[int]   // the batch's page list, room for every page
	// DiffAgainstTwin's scratch: the bounds of the runs of the page it
	// scans, lo and hi in pairs, rebuilt from empty at every diff.
	bounds []int32
}

// NewArena returns an empty warm arena.
func NewArena() *Arena { return &Arena{} }

// SetCanary installs the canary value for the next loan; call it while
// nothing is lent. Harness gives each run a distinct canary, so a guard
// violation names whose storage was overrun.
func (a *Arena) SetCanary(c float64) { a.canary = c }

// TakeData lends a zeroed data store of the given word count: the idle
// store, cleared, when its capacity fits, else a new one from make —
// already zero — in its place, so an idle arena holds the largest image
// it served. The returned slice is capacity-capped at words: an append
// cannot silently grow into the guard region. An arena lends one store
// at a time: call Release before the next take.
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
// fully overwrite it before reading (see the Arena reuse rules). The idle
// buffers are the one page freelist: Mem.RecyclePage pushes onto it
// within a run as well as across runs.
func (a *Arena) TakePage() []float64 {
	if l := len(a.pages); l > 0 {
		pg := a.pages[l-1]
		a.pages[l-1] = nil
		a.pages = a.pages[:l-1]
		return pg
	}
	return make([]float64, shm.PageWords)
}

// CheckGuards audits the outstanding loan's guard words against the
// canary. It must run before Release ends the loan. A mismatch is
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

// Release ends the outstanding data loan, keeping the store idle for the
// next run, and rewinds the slabs the loan's Mem carved from. Call
// CheckGuards first; release does not audit.
func (a *Arena) Release() {
	a.lent = false
	a.runs.Rewind(true)
	a.twins.Rewind(true)
	a.vals.Rewind(false)
	a.prots.Rewind(false)
	a.exts.Rewind(false)
	a.marks.Rewind(false)
	a.batch.Rewind(false)
}

// Loans reports the number of outstanding data loans: 0 or 1.
func (a *Arena) Loans() int {
	if a.lent {
		return 1
	}
	return 0
}
