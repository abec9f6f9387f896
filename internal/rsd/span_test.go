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

func TestSpanHelpers(t *testing.T) {
	s := Span{Lo: 2, Hi: 5}
	if s.Pages() != 3 {
		t.Errorf("Pages() = %d, want 3", s.Pages())
	}
	if s.String() != "[2,5)" {
		t.Errorf("String() = %q", s.String())
	}
}
