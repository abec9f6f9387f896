package vm

import (
	"runtime"
	"testing"

	"sdsm/internal/model"
	"sdsm/internal/shm"
)

// TestArenaDataLoan pins the data-store contract: loans come back
// zeroed regardless of what the previous tenant left, reuse actually
// recycles storage, and append cannot reach the guard region.
func TestArenaDataLoan(t *testing.T) {
	a := NewArena()
	a.SetCanary(1.5)
	d1 := a.TakeData(64)
	for i := range d1 {
		d1[i] = float64(i + 1)
	}
	if err := a.CheckGuards(); err != nil {
		t.Fatalf("guards after in-bounds writes: %v", err)
	}
	a.ReleaseData()
	if n, _, _ := a.Idle(); n != 1 {
		t.Fatalf("idle data stores after release: %d, want 1", n)
	}

	a.SetCanary(2.5)
	d2 := a.TakeData(32) // fits in the recycled 64-word store
	if n, _, _ := a.Idle(); n != 0 {
		t.Fatal("second take did not reuse the idle store")
	}
	for i, v := range d2 {
		if v != 0 {
			t.Fatalf("reused store word %d = %v, want 0 (previous tenant visible)", i, v)
		}
	}
	if cap(d2) != len(d2) {
		t.Fatalf("loan capacity %d > length %d: append could reach the guards", cap(d2), len(d2))
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
	a.loans[0].store[16] = 0 // first guard word, via the backing array
	if err := a.CheckGuards(); err == nil {
		t.Fatal("corrupted guard word passed the audit")
	}
}

// TestArenaInt32Raw pins that int32 loans are deliberately raw: stale
// contents survive recycling (the directory layer owns initialization —
// tmk's warm EnableScale test covers that side).
func TestArenaInt32Raw(t *testing.T) {
	a := NewArena()
	s := a.TakeInt32(8)
	for i := range s {
		s[i] = 42
	}
	a.RecycleInt32(s)
	s2 := a.TakeInt32(8)
	if s2[0] != 42 {
		t.Fatal("int32 loan was scrubbed; the warm-reuse contract hands it back raw")
	}
}

// TestWarmMemBitIdentical pins NewWarm's observable equality with New:
// same zeroed data, same page count, and Release hands storage back.
func TestWarmMemBitIdentical(t *testing.T) {
	a := NewArena()
	m := NewWarm(3, 3*shm.PageWords, model.SP2(), nil, a)
	if m.Arena() != a {
		t.Fatal("warm Mem lost its arena")
	}
	for i, v := range m.Data() {
		if v != 0 {
			t.Fatalf("warm data word %d = %v, want 0", i, v)
		}
	}
	if m.Pages() != 3 {
		t.Fatalf("pages %d, want 3", m.Pages())
	}
	m.Release()
	a.ReleaseData()
	data, _, _ := a.Idle()
	if data != 1 {
		t.Fatalf("idle data stores after release: %d, want 1", data)
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
		a.ReleaseData()
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
