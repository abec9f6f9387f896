package rsd

import (
	"reflect"
	"testing"
)

func TestCoalesceContiguity(t *testing.T) {
	cases := []struct {
		name  string
		pages []int
		want  []Span
	}{
		{"empty", nil, nil},
		{"single", []int{7}, []Span{{7, 8}}},
		{"one run", []int{3, 4, 5}, []Span{{3, 6}}},
		{"gap splits", []int{3, 4, 6, 7}, []Span{{3, 5}, {6, 8}}},
		{"all isolated", []int{1, 3, 5}, []Span{{1, 2}, {3, 4}, {5, 6}}},
	}
	for _, c := range cases {
		if got := Coalesce(c.pages, nil); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Coalesce(%v) = %v, want %v", c.name, c.pages, got, c.want)
		}
	}
}

// TestCoalesceKeySplits pins the binding rule the adaptive section
// clustering relies on: adjacent pages bound to different consumers (or
// producers) must not merge into one span, even though they are
// contiguous — a span pushed whole would deliver one consumer's pages to
// another.
func TestCoalesceKeySplits(t *testing.T) {
	owner := map[int]string{10: "a", 11: "a", 12: "b", 13: "b", 14: "a"}
	same := func(a, b int) bool { return owner[a] == owner[b] }
	got := Coalesce([]int{10, 11, 12, 13, 14}, same)
	want := []Span{{10, 12}, {12, 14}, {14, 15}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Coalesce with key = %v, want %v", got, want)
	}
}

func TestCoalescePanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Coalesce accepted an unsorted page list")
		}
	}()
	Coalesce([]int{5, 4}, nil)
}

// TestSpanPageListRoundTrip is the lossless-compression property behind
// the wire codec's version-7 relay encoding: for every sorted,
// duplicate-free page list — sparse, dense, or adjacent-run-structured —
// PageList(SpansOfSorted(ps)) == ps. Randomized over a deterministic
// generator so sim/real/net see the same cases.
func TestSpanPageListRoundTrip(t *testing.T) {
	rng := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	for trial := 0; trial < 500; trial++ {
		// Mix regimes: sparse isolated pages, dense blocks, and mixed
		// adjacent runs, over a small universe so adjacency is common.
		var pages []int32
		p := 0
		for len(pages) < next(40)+1 {
			switch next(3) {
			case 0: // isolated page
				p += 2 + next(10)
				pages = append(pages, int32(p))
			case 1: // short run
				p += 2 + next(5)
				for k := 0; k <= next(4); k++ {
					pages = append(pages, int32(p))
					p++
				}
			case 2: // long dense block
				p += 2
				for k := 0; k <= 8+next(8); k++ {
					pages = append(pages, int32(p))
					p++
				}
			}
		}
		spans := SpansOfSorted(pages)
		for i, s := range spans {
			if s.Hi <= s.Lo {
				t.Fatalf("trial %d: empty span %v", trial, s)
			}
			if i > 0 && s.Lo <= spans[i-1].Hi {
				t.Fatalf("trial %d: spans %v and %v not separated", trial, spans[i-1], s)
			}
		}
		back := PageList(spans)
		if !reflect.DeepEqual(back, pages) {
			t.Fatalf("trial %d: round trip %v -> %v -> %v", trial, pages, spans, back)
		}
	}
	if PageList(SpansOfSorted(nil)) != nil {
		t.Fatal("nil list must round-trip to nil")
	}
}

func TestSpansOfSortedPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SpansOfSorted accepted an unsorted page list")
		}
	}()
	SpansOfSorted([]int32{5, 5})
}

func TestSpanHelpers(t *testing.T) {
	s := Span{Lo: 2, Hi: 5}
	if s.Pages() != 3 {
		t.Errorf("Pages() = %d, want 3", s.Pages())
	}
	if s.String() != "[2,5)" {
		t.Errorf("String() = %q", s.String())
	}
}
