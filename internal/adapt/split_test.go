package adapt

import (
	"reflect"
	"testing"
)

// pairWrite returns an epoch in which page pg is written by two nodes
// with the given disjoint extents — the false-sharing shape of a block
// boundary landing mid-page.
func pairWrite(pg, loNode, loHi, hiNode, hiLo int) Epoch {
	return Epoch{
		Writers: map[int][]WriteExt{pg: {
			{Node: loNode, Lo: 0, Hi: loHi},
			{Node: hiNode, Lo: hiLo, Hi: 512},
		}},
		Readers: map[int][]int{},
	}
}

// TestSplitPromotion drives the jacobi boundary-page shape: two writers
// own disjoint halves of one page, each reads the other's half every
// cycle. After K stable cycles the page must carry a sub-page split
// binding at the watershed, with both writers as consumers.
func TestSplitPromotion(t *testing.T) {
	d := New(Config{K: 3})
	for cycle := 1; cycle <= 3; cycle++ {
		advance(t, d, read(map[int][]int{17: {0, 1}}))
		advance(t, d, pairWrite(17, 0, 256, 1, 256))
		_, _, _, ok := d.Split(17)
		if want := cycle == 3; ok != want {
			t.Fatalf("cycle %d: Split ok = %v, want %v", cycle, ok, want)
		}
	}
	pair, cut, cons, ok := d.Split(17)
	if !ok || pair != [2]int{0, 1} || cut != 256 || !reflect.DeepEqual(cons, []int{0, 1}) {
		t.Fatalf("Split = (%v, %d, %v, %v), want ([0 1], 256, [0 1], true)", pair, cut, cons, ok)
	}
	if d.Stats.Splits != 1 || d.Stats.Promotions != 0 {
		t.Fatalf("stats = %+v, want one split, no whole-page promotion", d.Stats)
	}
	// Push (the whole-page binding query) must stay false for split pages:
	// there is no single producer to aggregate under.
	if _, _, ok := d.Push(17); ok {
		t.Fatal("split page also reports a whole-page binding")
	}
	// Satisfied cycles (no reads — the pushes cover both halves) keep the
	// binding; a read by a third node extends it.
	advance(t, d, pairWrite(17, 0, 256, 1, 256))
	if _, _, _, ok := d.Split(17); !ok {
		t.Fatal("binding decayed on a satisfied cycle")
	}
	advance(t, d, read(map[int][]int{17: {5}}))
	advance(t, d, pairWrite(17, 0, 256, 1, 256))
	if _, _, cons, _ := d.Split(17); !reflect.DeepEqual(cons, []int{0, 1, 5}) {
		t.Fatalf("binding after extension = %v, want [0 1 5]", cons)
	}
}

// TestPairDiscardsSingleCycleReads: reads accumulated under a
// single-producer pattern must not seed the pair hysteresis when a
// second writer appears — the transition discards them, exactly as a
// producer change does, so a split binding still takes K *pair* cycles.
func TestPairDiscardsSingleCycleReads(t *testing.T) {
	d := New(Config{K: 2})
	advance(t, d, read(map[int][]int{6: {0, 1}}))
	advance(t, d, write(map[int]int{6: 0})) // single-producer cycle with readers {0,1}
	// The pair appears. The in-flight reads belonged to the broken single
	// pattern; this epoch contributes no pair cycle with consumers.
	advance(t, d, read(map[int][]int{6: {0, 1}}))
	advance(t, d, pairWrite(6, 0, 256, 1, 256))
	advance(t, d, read(map[int][]int{6: {0, 1}}))
	advance(t, d, pairWrite(6, 0, 256, 1, 256))
	if _, _, _, ok := d.Split(6); ok {
		t.Fatal("split binding formed with a cycle inherited from the single pattern")
	}
	advance(t, d, read(map[int][]int{6: {0, 1}}))
	advance(t, d, pairWrite(6, 0, 256, 1, 256))
	if _, _, _, ok := d.Split(6); !ok {
		t.Fatal("split binding missing after K genuine pair cycles")
	}
}

// TestSingleDiscardsPairCycleReads is the mirror of the previous test:
// reads accumulated while pair hysteresis was in progress must not seed
// the single-producer streak when the pair breaks to one writer.
func TestSingleDiscardsPairCycleReads(t *testing.T) {
	d := New(Config{K: 2})
	advance(t, d, read(map[int][]int{6: {2, 3}}))
	advance(t, d, pairWrite(6, 0, 256, 1, 256)) // pair cycle with readers {2,3}
	advance(t, d, read(map[int][]int{6: {2, 3}}))
	advance(t, d, write(map[int]int{6: 0})) // pair breaks to a single writer
	// The reads of epoch 3 consumed the pair's production; they must not
	// count as a single-producer cycle.
	advance(t, d, read(map[int][]int{6: {2, 3}}))
	advance(t, d, write(map[int]int{6: 0}))
	if _, _, ok := d.Push(6); ok {
		t.Fatal("promoted with a cycle inherited from the pair pattern")
	}
	advance(t, d, read(map[int][]int{6: {2, 3}}))
	advance(t, d, write(map[int]int{6: 0}))
	if _, _, ok := d.Push(6); !ok {
		t.Fatal("not promoted after K genuine single-producer cycles")
	}
}

// TestSplitRequiresDisjointExtents: two writers whose extents overlap are
// a write conflict, not false sharing — no split binding may form, and
// hysteresis restarts each conflicting epoch.
func TestSplitRequiresDisjointExtents(t *testing.T) {
	d := New(Config{K: 2})
	for cycle := 0; cycle < 4; cycle++ {
		advance(t, d, read(map[int][]int{9: {0, 1}}))
		advance(t, d, Epoch{Writers: map[int][]WriteExt{9: {
			{Node: 0, Lo: 0, Hi: 300},
			{Node: 1, Lo: 200, Hi: 512},
		}}, Readers: map[int][]int{}})
	}
	if _, _, _, ok := d.Split(9); ok {
		t.Fatal("split binding formed over overlapping extents")
	}
	// Unknown extents (Hi == 0) are equally disqualifying.
	d2 := New(Config{K: 2})
	for cycle := 0; cycle < 4; cycle++ {
		advance(t, d2, read(map[int][]int{9: {0, 1}}))
		advance(t, d2, Epoch{Writers: map[int][]WriteExt{9: {
			{Node: 0}, {Node: 1, Lo: 256, Hi: 512},
		}}, Readers: map[int][]int{}})
	}
	if _, _, _, ok := d2.Split(9); ok {
		t.Fatal("split binding formed over unknown extents")
	}
}

// TestSplitDecay: a split binding decays when the pair changes, when a
// third writer appears, or when a write crosses the watershed.
func TestSplitDecay(t *testing.T) {
	bind := func() *Detector {
		d := New(Config{K: 2})
		for cycle := 0; cycle < 2; cycle++ {
			advance(t, d, read(map[int][]int{3: {0, 1}}))
			advance(t, d, pairWrite(3, 0, 128, 1, 384))
		}
		if _, _, _, ok := d.Split(3); !ok {
			t.Fatal("setup: no split binding")
		}
		return d
	}

	d := bind()
	advance(t, d, pairWrite(3, 2, 128, 1, 384)) // different pair
	if _, _, _, ok := d.Split(3); ok {
		t.Fatal("no decay on a pair change")
	}
	if d.Stats.Decays != 1 {
		t.Fatalf("decays = %d, want 1", d.Stats.Decays)
	}

	d = bind()
	advance(t, d, Epoch{Writers: map[int][]WriteExt{3: {
		{Node: 0, Lo: 0, Hi: 128}, {Node: 1, Lo: 384, Hi: 512}, {Node: 2, Lo: 200, Hi: 210},
	}}, Readers: map[int][]int{}})
	if _, _, _, ok := d.Split(3); ok {
		t.Fatal("no decay on a third writer")
	}

	d = bind()
	// The low writer's extent crosses the watershed (cut = 256).
	advance(t, d, pairWrite(3, 0, 400, 1, 400))
	if _, _, _, ok := d.Split(3); ok {
		t.Fatal("no decay on a write across the watershed")
	}

	// A single writer from the pair, by contrast, is a satisfied producer
	// epoch — the binding must hold.
	d = bind()
	advance(t, d, write(map[int]int{3: 0}))
	if _, _, _, ok := d.Split(3); !ok {
		t.Fatal("binding decayed when one pair member produced alone")
	}
	// But a single outside writer takes the page.
	advance(t, d, write(map[int]int{3: 7}))
	if _, _, _, ok := d.Split(3); ok {
		t.Fatal("no decay on an outside single writer")
	}
}

// TestSectionJoin: a page whose pattern matches an adjacent whole-page
// bound section (same producer, same consumers) joins it after one stable
// cycle instead of re-serving the full K-cycle hysteresis.
func TestSectionJoin(t *testing.T) {
	d := New(Config{K: 3})
	for cycle := 0; cycle < 3; cycle++ {
		advance(t, d, read(map[int][]int{10: {1, 2}}))
		advance(t, d, write(map[int]int{10: 0}))
	}
	if _, _, ok := d.Push(10); !ok {
		t.Fatal("setup: page 10 not bound")
	}
	// Page 11: same producer and consumers, adjacent to the bound page —
	// one cycle suffices.
	advance(t, d, read(map[int][]int{11: {1, 2}}))
	advance(t, d, write(map[int]int{11: 0}))
	if _, cons, ok := d.Push(11); !ok || !reflect.DeepEqual(cons, []int{1, 2}) {
		t.Fatalf("Push(11) = (%v, %v), want join with [1 2]", cons, ok)
	}
	if d.Stats.SectionJoins != 1 {
		t.Fatalf("section joins = %d, want 1", d.Stats.SectionJoins)
	}
	// Page 12: adjacent but a different consumer set — no join, full
	// hysteresis applies.
	advance(t, d, read(map[int][]int{12: {5}}))
	advance(t, d, write(map[int]int{12: 0}))
	if _, _, ok := d.Push(12); ok {
		t.Fatal("page with a different consumer set joined the section")
	}
	// Page 13 written by a different producer — no join either.
	advance(t, d, read(map[int][]int{13: {1, 2}}))
	advance(t, d, write(map[int]int{13: 4}))
	if _, _, ok := d.Push(13); ok {
		t.Fatal("page with a different producer joined the section")
	}
}

// TestSectionsClustering pins the section shape of the binding state:
// contiguous pages with identical bindings form one section; adjacent
// pages bound to a different consumer set or producer split; split-bound
// pages form their own sections.
func TestSectionsClustering(t *testing.T) {
	d := New(Config{K: 2})
	drive := func(pg int, prod int, readers []int) {
		for cycle := 0; cycle < 2; cycle++ {
			advance(t, d, read(map[int][]int{pg: readers}))
			advance(t, d, write(map[int]int{pg: prod}))
		}
	}
	drive(4, 0, []int{1})
	drive(5, 0, []int{1})
	drive(6, 0, []int{2}) // same producer, different consumer: must split
	drive(7, 3, []int{2}) // same consumer, different producer: must split
	for cycle := 0; cycle < 2; cycle++ {
		advance(t, d, read(map[int][]int{9: {0, 1}}))
		advance(t, d, pairWrite(9, 0, 256, 1, 256))
	}
	got := d.Sections()
	want := []Section{
		{Lo: 4, Hi: 6, Producer: 0, Consumers: []int{1}},
		{Lo: 6, Hi: 7, Producer: 0, Consumers: []int{2}},
		{Lo: 7, Hi: 8, Producer: 3, Consumers: []int{2}},
		{Lo: 9, Hi: 10, Split: true, Producer: -1, Pair: [2]int{0, 1}, Consumers: []int{0, 1}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Sections() = %+v,\nwant %+v", got, want)
	}
	// A pattern break on the middle page of a section shrinks it; the
	// neighbor keeps its binding (the decay asymmetry).
	drive(5, 7, []int{1}) // outside writer takes page 5
	if _, _, ok := d.Push(4); !ok {
		t.Fatal("neighbor page lost its binding to an unrelated break")
	}
	if _, _, ok := d.Push(5); ok {
		t.Fatal("broken page kept its binding")
	}
	secs := d.Sections()
	if len(secs) == 0 || secs[0].Lo != 4 || secs[0].Hi != 5 {
		t.Fatalf("section did not shrink around the break: %+v", secs)
	}
}
