package rsd

import "fmt"

// Page-granular spans.
//
// The compiler's sections (Section, Concrete) are symbolic: they describe
// array slices before the layout assigns addresses. The adaptive protocol
// works after layout, on page numbers, but wants the same economy the
// compiler gets from sections: one descriptor for a contiguous range
// instead of one per page. Span is that post-layout form — a half-open
// page range — and Coalesce is the clustering rule that builds maximal
// spans out of a page set, splitting wherever adjacent pages may not
// share a descriptor (different producer, different consumer set,
// incompatible diff headers — the caller's predicate decides).

// Span is a contiguous half-open page range [Lo, Hi).
type Span struct {
	Lo, Hi int
}

// Pages returns the number of pages in the span.
func (s Span) Pages() int { return s.Hi - s.Lo }

func (s Span) String() string { return fmt.Sprintf("[%d,%d)", s.Lo, s.Hi) }

// Coalesce clusters a sorted page list into maximal contiguous spans. Two
// adjacent pages (pg, pg+1) share a span only when both are present and
// same(pg, pg+1) holds — the caller's compatibility predicate (e.g. "same
// producer and same bound consumer set" for adaptive bindings, or header
// equality for wire diff spans). A nil predicate means plain contiguity.
// The input must be strictly increasing; Coalesce panics otherwise, since
// a duplicate or unsorted page would silently produce wrong spans.
func Coalesce(pages []int, same func(a, b int) bool) []Span {
	var out []Span
	for i, pg := range pages {
		if i > 0 && pg <= pages[i-1] {
			panic(fmt.Sprintf("rsd: Coalesce input not strictly increasing at %d", pg))
		}
		if n := len(out); n > 0 && pg == out[n-1].Hi && (same == nil || same(pg-1, pg)) {
			out[n-1].Hi = pg + 1
			continue
		}
		out = append(out, Span{Lo: pg, Hi: pg + 1})
	}
	return out
}
