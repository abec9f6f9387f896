package shm

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestRegionBasics(t *testing.T) {
	r := Region{10, 20}
	if r.Words() != 10 || r.Empty() {
		t.Fatalf("region basics wrong: %+v", r)
	}
	if !(Region{5, 5}).Empty() {
		t.Fatal("zero-width region should be empty")
	}
}

func TestRegionIntersect(t *testing.T) {
	cases := []struct{ a, b, want Region }{
		{Region{0, 10}, Region{5, 15}, Region{5, 10}},
		{Region{0, 10}, Region{10, 20}, Region{10, 10}},
		{Region{0, 10}, Region{20, 30}, Region{20, 20}},
		{Region{5, 6}, Region{0, 100}, Region{5, 6}},
	}
	for _, c := range cases {
		want := []Region{c.want}
		if c.want.Empty() {
			want = nil
		}
		if got := IntersectSets([]Region{c.a}, []Region{c.b}); !slices.Equal(got, want) {
			t.Errorf("%v ∩ %v = %v, want %v", c.a, c.b, got, want)
		}
	}
}

func TestRegionPages(t *testing.T) {
	p0, p1 := (Region{0, PageWords}).Pages()
	if p0 != 0 || p1 != 1 {
		t.Fatalf("pages = %d..%d, want 0..1", p0, p1)
	}
	p0, p1 = (Region{PageWords - 1, PageWords + 1}).Pages()
	if p0 != 0 || p1 != 2 {
		t.Fatalf("pages = %d..%d, want 0..2", p0, p1)
	}
	p0, p1 = (Region{3, 3}).Pages()
	if p0 != p1 {
		t.Fatalf("empty region spans pages %d..%d", p0, p1)
	}
}

func TestNormalizeMerges(t *testing.T) {
	got := Normalize([]Region{{10, 20}, {0, 5}, {5, 10}, {30, 30}, {15, 25}})
	want := []Region{{0, 25}}
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("Normalize = %v, want %v", got, want)
	}
}

// normalizeBySortSlice is Normalize as it was before it stopped allocating
// per append and sorting sorted input, kept to say what "the same result"
// means.
func normalizeBySortSlice(rs []Region) []Region {
	var out []Region
	for _, r := range rs {
		if !r.Empty() {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	merged := out[:0]
	for _, r := range out {
		if n := len(merged); n > 0 && r.Lo <= merged[n-1].Hi {
			if r.Hi > merged[n-1].Hi {
				merged[n-1].Hi = r.Hi
			}
			continue
		}
		merged = append(merged, r)
	}
	return merged
}

// TestNormalizeMatchesSortSlice: unsorted, overlapping, adjacent, nested,
// empty and already-normalized input gives what the old implementation
// gave (nil included), in at most one allocation, and is left as it was.
func TestNormalizeMatchesSortSlice(t *testing.T) {
	for _, rs := range [][]Region{
		nil,
		{},
		{{7, 7}, {9, 3}},
		{{0, 512}},
		{{0, 8}, {16, 24}, {32, 40}},
		{{0, 8}, {8, 16}, {16, 24}},
		{{0, 8}, {4, 12}, {12, 12}, {30, 40}},
		{{32, 40}, {16, 24}, {0, 8}},
		{{10, 20}, {0, 5}, {5, 10}, {30, 30}, {15, 25}},
		{{0, 100}, {10, 20}, {5, 6}, {99, 101}},
		{{5, 9}, {5, 7}, {5, 12}, {1, 2}, {2, 3}, {4, 4}},
		{{40, 50}, {0, 0}, {10, 20}, {20, 20}, {45, 60}, {9, 10}},
	} {
		in := slices.Clone(rs)
		var got []Region
		allocs := testing.AllocsPerRun(10, func() { got = Normalize(in) })
		if want := normalizeBySortSlice(slices.Clone(rs)); !reflect.DeepEqual(got, want) {
			t.Errorf("Normalize(%v) = %v, want %v", rs, got, want)
		}
		if !reflect.DeepEqual(in, rs) {
			t.Errorf("Normalize(%v) left its input as %v", rs, in)
		}
		if allocs > 1 {
			t.Errorf("Normalize(%v): %v allocations", rs, allocs)
		}
	}
}

// IntersectSets returns the intersection of two normalized region sets:
// the word-list intersection a Push was computed with before it intersected
// sections, kept as the obvious version the property below pins.
func IntersectSets(a, b []Region) []Region {
	var out []Region
	for _, ra := range a {
		for _, rb := range b {
			if x := (Region{max(ra.Lo, rb.Lo), min(ra.Hi, rb.Hi)}); !x.Empty() {
				out = append(out, x)
			}
		}
	}
	return Normalize(out)
}

func TestIntersectSets(t *testing.T) {
	a := []Region{{0, 10}, {20, 30}}
	b := []Region{{5, 25}}
	got := IntersectSets(a, b)
	want := []Region{{5, 10}, {20, 25}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("IntersectSets = %v, want %v", got, want)
	}
}

func TestNormalizeProperties(t *testing.T) {
	// Property: after Normalize, regions are sorted, non-empty, and
	// non-adjacent, and the total word count covers exactly the union.
	f := func(raw []struct{ Lo, Len uint8 }) bool {
		var rs []Region
		covered := map[int]bool{}
		for _, x := range raw {
			r := Region{int(x.Lo), int(x.Lo) + int(x.Len%32)}
			rs = append(rs, r)
			for w := r.Lo; w < r.Hi; w++ {
				covered[w] = true
			}
		}
		norm := Normalize(rs)
		total := 0
		for i, r := range norm {
			if r.Empty() {
				return false
			}
			if i > 0 && norm[i-1].Hi >= r.Lo {
				return false
			}
			total += r.Words()
		}
		return total == len(covered)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectSetsProperty(t *testing.T) {
	// Property: word w is in IntersectSets(a, b) iff it is in both a and b.
	inSet := func(rs []Region, w int) bool {
		for _, r := range rs {
			if w >= r.Lo && w < r.Hi {
				return true
			}
		}
		return false
	}
	f := func(la, lb [4]struct{ Lo, Len uint8 }) bool {
		mk := func(l [4]struct{ Lo, Len uint8 }) []Region {
			var rs []Region
			for _, x := range l {
				rs = append(rs, Region{int(x.Lo), int(x.Lo) + int(x.Len%24)})
			}
			return Normalize(rs)
		}
		a, b := mk(la), mk(lb)
		x := IntersectSets(a, b)
		for w := 0; w < 300; w++ {
			if inSet(x, w) != (inSet(a, w) && inSet(b, w)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArrayIndexColumnMajor(t *testing.T) {
	l := NewLayout()
	a := l.Alloc("a", 100, 50)
	if a.Index(1, 1) != a.Base {
		t.Fatal("Index(1,1) must be Base")
	}
	if a.Index(2, 1) != a.Base+1 {
		t.Fatal("first dimension must be contiguous (column-major)")
	}
	if a.Index(1, 2) != a.Base+100 {
		t.Fatal("column stride must equal Dims[0]")
	}
}

func TestLayoutPageAligned(t *testing.T) {
	l := NewLayout()
	a := l.Alloc("a", 10)
	b := l.Alloc("b", PageWords+1)
	c := l.Alloc("c", 7)
	if a.Base%PageWords != 0 || b.Base%PageWords != 0 || c.Base%PageWords != 0 {
		t.Fatalf("bases not page aligned: %d %d %d", a.Base, b.Base, c.Base)
	}
	if b.Base != PageWords {
		t.Fatalf("b.Base = %d, want %d", b.Base, PageWords)
	}
	if c.Base != 3*PageWords {
		t.Fatalf("c.Base = %d, want %d", c.Base, 3*PageWords)
	}
	if pages := (l.Words() + PageWords - 1) / PageWords; pages != 4 {
		t.Fatalf("layout pages = %d, want 4", pages)
	}
}

func TestArrayWholeAndStride(t *testing.T) {
	l := NewLayout()
	a := l.Alloc("x", 8, 4, 3)
	if a.Words() != 96 {
		t.Fatalf("words = %d", a.Words())
	}
	if a.Stride(0) != 1 || a.Stride(1) != 8 || a.Stride(2) != 32 {
		t.Fatalf("strides = %d %d %d", a.Stride(0), a.Stride(1), a.Stride(2))
	}
	if a.Whole().Words() != 96 {
		t.Fatalf("whole = %v", a.Whole())
	}
	if a.Index(8, 4, 3) != a.Base+95 {
		t.Fatalf("last index = %d", a.Index(8, 4, 3))
	}
}

func TestIndexPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l := NewLayout()
	l.Alloc("a", 4, 4).Index(5, 1)
}
