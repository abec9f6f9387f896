package adapt

import (
	"reflect"
	"testing"
)

// write returns an epoch in which each listed page is written whole by one
// node.
func write(pages map[int]int) Epoch {
	ep := Epoch{Writers: map[int][]WriteExt{}, Readers: map[int][]int{}}
	for pg, w := range pages {
		ep.Writers[pg] = []WriteExt{{Node: w, Lo: 0, Hi: 512}}
	}
	return ep
}

// read returns an epoch in which each listed page is fetched by readers.
func read(pages map[int][]int) Epoch {
	ep := Epoch{Writers: map[int][]WriteExt{}, Readers: map[int][]int{}}
	for pg, rs := range pages {
		ep.Readers[pg] = rs
	}
	return ep
}

// TestPromoteAfterK drives the canonical alternating write-phase /
// read-phase shape and checks the K-cycle hysteresis: the binding appears
// exactly at the K-th stable cycle, not before.
func TestPromoteAfterK(t *testing.T) {
	d := New(Config{K: 3})
	for cycle := 1; cycle <= 3; cycle++ {
		advance(t, d, read(map[int][]int{7: {1, 2}}))
		advance(t, d, write(map[int]int{7: 0}))
		_, _, ok := d.Push(7)
		if want := cycle == 3; ok != want {
			t.Fatalf("cycle %d: Push ok = %v, want %v", cycle, ok, want)
		}
	}
	prod, cons, ok := d.Push(7)
	if !ok || prod != 0 || !reflect.DeepEqual(cons, []int{1, 2}) {
		t.Fatalf("Push = (%d, %v, %v), want (0, [1 2], true)", prod, cons, ok)
	}
	if d.Stats.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", d.Stats.Promotions)
	}
}

// TestDefaultK checks that the zero config promotes after DefaultK cycles.
func TestDefaultK(t *testing.T) {
	d := New(Config{})
	for cycle := 1; cycle <= DefaultK; cycle++ {
		if _, _, ok := d.Push(3); ok {
			t.Fatalf("promoted before cycle %d with default K", cycle)
		}
		advance(t, d, read(map[int][]int{3: {4}}))
		advance(t, d, write(map[int]int{3: 2}))
	}
	if _, _, ok := d.Push(3); !ok {
		t.Fatalf("not promoted after %d cycles", DefaultK)
	}
}

// TestSameEpochReadWrite covers the single-barrier shape where the fetch
// and the next write land in the same epoch: reads are attributed before
// writes, so the cycle still closes with its consumers.
func TestSameEpochReadWrite(t *testing.T) {
	d := New(Config{K: 2})
	for i := 0; i < 2; i++ {
		ep := write(map[int]int{5: 1})
		ep.Readers[5] = []int{0}
		advance(t, d, ep)
	}
	prod, cons, ok := d.Push(5)
	if !ok || prod != 1 || !reflect.DeepEqual(cons, []int{0}) {
		t.Fatalf("Push = (%d, %v, %v), want (1, [0], true)", prod, cons, ok)
	}
}

// TestBookkeepingWriteKeepsStreak checks that a write with no reads since
// the previous write (a lazy-flush interval split, or a multi-epoch
// production) extends the production instead of resetting the streak.
func TestBookkeepingWriteKeepsStreak(t *testing.T) {
	d := New(Config{K: 2})
	for cycle := 0; cycle < 2; cycle++ {
		advance(t, d, read(map[int][]int{9: {3}}))
		advance(t, d, write(map[int]int{9: 0})) // closes the cycle
		advance(t, d, write(map[int]int{9: 0})) // empty: production continues
	}
	if _, _, ok := d.Push(9); !ok {
		t.Fatal("empty production cycles reset the streak")
	}
}

// TestDecayOnWriterConflict checks the immediate decay: one epoch with a
// conflicting writer drops the page back to invalidate and resets the
// hysteresis from scratch.
func TestDecayOnWriterConflict(t *testing.T) {
	d := New(Config{K: 2})
	for cycle := 0; cycle < 2; cycle++ {
		advance(t, d, read(map[int][]int{4: {2}}))
		advance(t, d, write(map[int]int{4: 1}))
	}
	if _, _, ok := d.Push(4); !ok {
		t.Fatal("not promoted")
	}
	advance(t, d, write(map[int]int{4: 2})) // different writer
	if _, _, ok := d.Push(4); ok {
		t.Fatal("no decay on producer change")
	}
	if d.Stats.Decays != 1 {
		t.Fatalf("decays = %d, want 1", d.Stats.Decays)
	}
	// One stable cycle under the new producer must not re-promote (K=2).
	advance(t, d, read(map[int][]int{4: {1}}))
	advance(t, d, write(map[int]int{4: 2}))
	if _, _, ok := d.Push(4); ok {
		t.Fatal("re-promoted without full hysteresis")
	}
	advance(t, d, read(map[int][]int{4: {1}}))
	advance(t, d, write(map[int]int{4: 2}))
	if prod, cons, ok := d.Push(4); !ok || prod != 2 || !reflect.DeepEqual(cons, []int{1}) {
		t.Fatalf("Push = (%d, %v, %v) after re-stabilizing, want (2, [1], true)", prod, cons, ok)
	}
}

// TestDecayOnMultiWriter: concurrent writers in one epoch break the
// pattern even when the old producer is among them.
func TestDecayOnMultiWriter(t *testing.T) {
	d := New(Config{K: 2})
	for cycle := 0; cycle < 2; cycle++ {
		advance(t, d, read(map[int][]int{4: {2}}))
		advance(t, d, write(map[int]int{4: 1}))
	}
	// Both write the whole page: overlapping extents, a genuine conflict
	// (the disjoint-extent pair shape is TestSplitPromotion's subject).
	ep := Epoch{Writers: map[int][]WriteExt{4: {{Node: 1, Lo: 0, Hi: 512}, {Node: 3, Lo: 0, Hi: 512}}}, Readers: map[int][]int{}}
	advance(t, d, ep)
	if _, _, ok := d.Push(4); ok {
		t.Fatal("no decay on multi-writer epoch")
	}
	if d.Stats.Decays != 1 {
		t.Fatalf("decays = %d, want 1", d.Stats.Decays)
	}
}

// TestConsumerChurnBlocksPromotion: the consumer set must repeat; churn
// restarts the streak.
func TestConsumerChurnBlocksPromotion(t *testing.T) {
	d := New(Config{K: 2})
	sets := [][]int{{1}, {2}, {1, 2}}
	for _, rs := range sets {
		advance(t, d, read(map[int][]int{6: rs}))
		advance(t, d, write(map[int]int{6: 0}))
		if _, _, ok := d.Push(6); ok {
			t.Fatalf("promoted on churning consumer sets")
		}
	}
	// Now hold the set stable for K cycles.
	for i := 0; i < 2; i++ {
		advance(t, d, read(map[int][]int{6: {1, 2}}))
		advance(t, d, write(map[int]int{6: 0}))
	}
	if _, cons, ok := d.Push(6); !ok || !reflect.DeepEqual(cons, []int{1, 2}) {
		t.Fatalf("Push = (%v, %v) after stabilizing, want ([1 2], true)", cons, ok)
	}
}

// TestBindingExtension: a consumer that still faults while the page is in
// update mode (a reader the pushes missed) joins the binding instead of
// breaking it.
func TestBindingExtension(t *testing.T) {
	d := New(Config{K: 2})
	for cycle := 0; cycle < 2; cycle++ {
		advance(t, d, read(map[int][]int{8: {1}}))
		advance(t, d, write(map[int]int{8: 0}))
	}
	if _, cons, ok := d.Push(8); !ok || !reflect.DeepEqual(cons, []int{1}) {
		t.Fatalf("Push = (%v, %v), want ([1], true)", cons, ok)
	}
	advance(t, d, read(map[int][]int{8: {3}}))
	advance(t, d, write(map[int]int{8: 0}))
	if _, cons, ok := d.Push(8); !ok || !reflect.DeepEqual(cons, []int{1, 3}) {
		t.Fatalf("Push = (%v, %v) after extension, want ([1 3], true)", cons, ok)
	}
	if d.Stats.Decays != 0 {
		t.Fatalf("decays = %d, want 0", d.Stats.Decays)
	}
}

// TestReadOnlyAndPrivatePages: pages that are only read (one cold fetch)
// or only written (private) never promote.
func TestReadOnlyAndPrivatePages(t *testing.T) {
	d := New(Config{K: 1})
	for i := 0; i < 5; i++ {
		advance(t, d, read(map[int][]int{1: {2}})) // read-only page 1
		advance(t, d, write(map[int]int{2: 0}))    // private page 2
	}
	if _, _, ok := d.Push(1); ok {
		t.Fatal("promoted a never-written page")
	}
	if _, _, ok := d.Push(2); ok {
		t.Fatal("promoted a never-read page")
	}
	if d.pages[1].mode != Invalidate || d.pages[2].mode != Invalidate {
		t.Fatal("modes drifted from invalidate")
	}
}

// TestAdvanceRejectsMalformedEpoch: the map adapter fails loudly on the two
// inputs the dense form has no meaning for, instead of drifting silently.
func TestAdvanceRejectsMalformedEpoch(t *testing.T) {
	for name, ep := range map[string]Epoch{
		"empty writer list":     {Writers: map[int][]WriteExt{3: {}}},
		"negative written page": {Writers: map[int][]WriteExt{-1: {{Node: 0, Hi: 512}}}},
		"negative read page":    {Readers: map[int][]int{-1: {2}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Advance did not panic", name)
				}
			}()
			New(Config{}).Advance(ep)
		}()
	}
}
