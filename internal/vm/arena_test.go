package vm

import (
	"runtime"
	"testing"
	"unsafe"

	"sdsm/internal/host"
	"sdsm/internal/model"
	"sdsm/internal/shm"
)

// Idle reports the arena's idle inventory (data stores — 0 or 1 — and
// page buffers), for tests that pin warm reuse actually happening.
func (a *Arena) Idle() (data, pages int) {
	if a.data != nil && !a.lent {
		data = 1
	}
	return data, len(a.pages)
}

// TestArenaDataLoan pins the data-store contract: an arena holds one
// store, loans come back zeroed regardless of what the previous tenant
// left, a loan that fits recycles the idle store and one that does not
// replaces it, and append cannot reach the guard region. Each loan is
// dirtied over its whole length before release, so the next loan's
// zeroing is what is under test.
func TestArenaDataLoan(t *testing.T) {
	a := NewArena()
	var prev *float64
	for _, c := range []struct {
		words  int
		reused bool
	}{
		{64, false},
		{32, true},   // fits in the idle 64-word store
		{128, false}, // does not: a new store replaces it
		{128, true},
	} {
		a.SetCanary(float64(c.words) + 0.5)
		d := a.TakeData(c.words)
		if n, _ := a.Idle(); n != 0 || a.Loans() != 1 {
			t.Fatalf("%d words: idle %d, loans %d while lent, want 0 and 1", c.words, n, a.Loans())
		}
		if got := unsafe.SliceData(d) == prev; got != c.reused {
			t.Fatalf("%d words: store reused = %v, want %v", c.words, got, c.reused)
		}
		prev = unsafe.SliceData(d)
		if len(d) != c.words || cap(d) != len(d) {
			t.Fatalf("%d words: loan len %d cap %d: append could reach the guards", c.words, len(d), cap(d))
		}
		for i, v := range d {
			if v != 0 {
				t.Fatalf("%d words: word %d = %v, want 0 (previous tenant visible)", c.words, i, v)
			}
			d[i] = float64(i + 1)
		}
		if err := a.CheckGuards(); err != nil {
			t.Fatalf("%d words: guards after in-bounds writes: %v", c.words, err)
		}
		a.Release()
		if n, _ := a.Idle(); n != 1 || a.Loans() != 0 {
			t.Fatalf("%d words: idle %d, loans %d after release, want 1 and 0", c.words, n, a.Loans())
		}
	}
}

// TestArenaGuardCatchesOverrun pins the bleed detector: a write past
// the loaned length lands in the guard words and CheckGuards reports
// it. The loan itself is capacity-capped, so the overrun is simulated
// through the backing store the arena retains — the view a buggy
// aliasing bug would reach.
func TestArenaGuardCatchesOverrun(t *testing.T) {
	a := NewArena()
	a.SetCanary(7.25)
	_ = a.TakeData(16)
	if err := a.CheckGuards(); err != nil {
		t.Fatalf("clean loan failed audit: %v", err)
	}
	a.data[16] = 0 // first guard word, via the backing array
	if err := a.CheckGuards(); err == nil {
		t.Fatal("corrupted guard word passed the audit")
	}
}

// TestWarmMemBitIdentical pins NewWarm's observable equality with New:
// same zeroed data — on the cold take and on the one that recycles the
// store a dirtied Mem gave back — same page count, and Release hands the
// store back.
func TestWarmMemBitIdentical(t *testing.T) {
	a := NewArena()
	for round := 0; round < 2; round++ {
		m := NewWarm(3, 3*shm.PageWords, model.SP2(), nil, a)
		if m.arena != a {
			t.Fatal("warm Mem lost its arena")
		}
		for i, v := range m.Data() {
			if v != 0 {
				t.Fatalf("round %d: warm data word %d = %v, want 0", round, i, v)
			}
			m.Data()[i] = -1
		}
		if m.Pages() != 3 {
			t.Fatalf("pages %d, want 3", m.Pages())
		}
		m.Release()
		a.Release()
		if data, _ := a.Idle(); data != 1 {
			t.Fatalf("round %d: idle data stores after release: %d, want 1", round, data)
		}
	}
}

// TestWarmMemReusesDataStore pins what a warm arena exists for: once the
// arena holds an idle store, building a Mem over it must not allocate an
// address space on the heap (per-page bookkeeping only — a fraction of
// the store's size).
func TestWarmMemReusesDataStore(t *testing.T) {
	const words = 512 * shm.PageWords // a 2 MiB store
	a := NewArena()
	warm := func() {
		m := NewWarm(0, words, model.SP2(), nil, a)
		m.Release()
		a.Release()
	}
	warm() // the cold job pays for the store
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	warm()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > words*8/4 {
		t.Errorf("warm NewWarm allocated %d bytes for a %d-byte store it already had", got, words*8)
	}
}

// TestRecycledPageServesNextTwin pins the one page freelist: the buffer
// a consumed twin hands back (RecyclePage) serves the next MakeTwin, in
// the same Mem and — after Release — in a new Mem over the same arena.
func TestRecycledPageServesNextTwin(t *testing.T) {
	a := NewArena()
	m := NewWarm(0, 2*shm.PageWords, model.SP2(), nil, a)
	runOne(t, func(p host.Proc) {
		m.MakeTwin(p, 0)
		buf := unsafe.SliceData(m.TwinData(0))
		m.DiffAgainstTwin(p, 0)
		m.MakeTwin(p, 1)
		if unsafe.SliceData(m.TwinData(1)) != buf {
			t.Fatal("the next twin did not reuse the buffer the diff recycled")
		}
		m.Release()
		a.Release()
		next := NewWarm(1, 2*shm.PageWords, model.SP2(), nil, a)
		next.MakeTwin(p, 0)
		if unsafe.SliceData(next.TwinData(0)) != buf {
			t.Fatal("a new Mem on the same arena did not reuse the buffer Release gave back")
		}
	})
}
