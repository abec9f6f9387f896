package wire

import (
	"fmt"
	"reflect"
	"testing"
)

// TestSinglePageSpanRoundTrip pins the compatibility contract of the
// version-4 section encoding: a single-page section coalesces into a
// one-page span and expands back to exactly the version-3 per-page Diff
// it came from — same header, same coverage, same runs — and its
// accounted size is the version-3 size (16-byte header + runs).
func TestSinglePageSpanRoundTrip(t *testing.T) {
	d := Diff{
		Page: 42, Creator: 3, From: 7, To: 9, Covers: []int32{1, 0, 9, 2},
		Runs: []Run{{Off: 16, Vals: []float64{1, 2, 3}}, {Off: 200, Vals: []float64{-4}}},
	}
	spans := CoalesceDiffs(nil, []Diff{d})
	if len(spans) != 1 || len(spans[0].Pages) != 1 {
		t.Fatalf("single diff coalesced to %+v", spans)
	}
	back := ExpandSpans(nil, spans)
	if len(back) != 1 || !reflect.DeepEqual(back[0], d) {
		t.Fatalf("round trip: got %+v, want %+v", back, d)
	}
	// Accounted size: 16-byte header + one word per run header + data words.
	if got, want := spans[0].WireBytes(), 16+8*(1+3)+8*(1+1); got != want {
		t.Errorf("single-page span WireBytes = %d, want %d", got, want)
	}
}

// TestCoalesceDiffsSpans checks the section-coalescing rules: adjacent
// pages with identical headers merge; a page gap, a different creator, a
// different interval range, or a different coverage vector all split; and
// per-page chains coalesce link-wise (one span per chain link).
func TestCoalesceDiffsSpans(t *testing.T) {
	covA := []int32{4, 0}
	covB := []int32{0, 7}
	mk := func(pg, creator, from, to int32, cov []int32) Diff {
		return Diff{Page: pg, Creator: creator, From: from, To: to, Covers: cov,
			Runs: []Run{{Off: 0, Vals: []float64{float64(pg)}}}}
	}
	ds := []Diff{
		// Chain link 1 on pages 3,4,5 (creator 0) — one span.
		mk(3, 0, 1, 2, covA), mk(3, 0, 2, 4, covA),
		mk(4, 0, 1, 2, covA), mk(4, 0, 2, 4, covA),
		mk(5, 0, 1, 2, covA), mk(5, 0, 2, 4, covA),
		// Page 6: different creator — must not join creator 0's spans.
		mk(6, 1, 1, 2, covB),
		// Page 8: gap after 6 — new span.
		mk(8, 1, 1, 2, covB),
		// Page 9: same creator/range as 8 but different coverage — split.
		mk(9, 1, 1, 2, covA),
	}
	spans := CoalesceDiffs(nil, ds)
	type key struct {
		pg, n   int32
		creator int32
		from    int32
	}
	var got []key
	for _, s := range spans {
		got = append(got, key{s.Page, int32(len(s.Pages)), s.Creator, s.From})
	}
	want := []key{
		{3, 3, 0, 1}, {3, 3, 0, 2}, // the two chain links, 3 pages each
		{6, 1, 1, 1}, {8, 1, 1, 1}, {9, 1, 1, 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spans = %+v, want %+v", got, want)
	}
	// Lossless: expansion yields the same diff set.
	back := ExpandSpans(nil, spans)
	if len(back) != len(ds) {
		t.Fatalf("expanded %d diffs, want %d", len(back), len(ds))
	}
	seen := map[string]bool{}
	for _, d := range ds {
		seen[diffKey(d)] = true
	}
	for _, d := range back {
		if !seen[diffKey(d)] {
			t.Fatalf("expansion produced unexpected diff %+v", d)
		}
	}
	// Header economy: the 3-page spans cost one header plus page-map
	// entries, less than three separate version-3 headers.
	if got, want := spans[0].WireBytes(), 16+2*4+3*8*2; got != want {
		t.Errorf("3-page span WireBytes = %d, want %d", got, want)
	}
}

// TestSpansIntoUsedDst pins the reuse contract of CoalesceDiffs and
// ExpandSpans: appended into a used dst — a previous result's storage,
// cut to length zero — each produces exactly what it produces into nil,
// appended after a non-empty dst it leaves dst's elements alone (no diff
// joins a span it did not make), and a span built in a reused slot keeps
// a Pages array of its own: appending to one span's Pages never writes
// another's.
func TestSpansIntoUsedDst(t *testing.T) {
	covA, covB := []int32{4, 0}, []int32{0, 7}
	mk := func(pg, creator int32, cov []int32) Diff {
		return Diff{Page: pg, Creator: creator, From: 1, To: 2, Covers: cov,
			Runs: []Run{{Off: pg, Vals: []float64{float64(100*creator + pg)}}}}
	}
	// The first list makes a 3-page and a 2-page span; the second puts a
	// 1-page span in the slot of the 3-page one and a 4-page span in the
	// slot of the 2-page one.
	first := []Diff{mk(3, 0, covA), mk(4, 0, covA), mk(5, 0, covA), mk(9, 1, covB), mk(10, 1, covB)}
	second := []Diff{mk(7, 1, covB), mk(1, 0, covA), mk(2, 0, covA), mk(3, 0, covA), mk(4, 0, covA)}
	used := CoalesceDiffs(nil, first)
	got, want := CoalesceDiffs(used[:0], second), CoalesceDiffs(nil, second)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("coalesced into a used dst: %+v, want %+v", got, want)
	}
	kept := CoalesceDiffs(nil, first)
	if after := CoalesceDiffs(kept, second); !reflect.DeepEqual(after[:2], CoalesceDiffs(nil, first)) || !reflect.DeepEqual(after[2:], want) {
		t.Fatalf("coalesced after a non-empty dst: %+v, want its spans then %+v", after, want)
	}
	for i := range got {
		got[i].Pages = append(got[i].Pages, []Run{{Off: int32(-1 - i)}})
	}
	for i := range got {
		if n := len(got[i].Pages); !reflect.DeepEqual(got[i].Pages[:n-1], want[i].Pages) || got[i].Pages[n-1][0].Off != int32(-1-i) {
			t.Fatalf("span %d's pages after every span was appended to: %+v, want %+v then its own marker", i, got[i].Pages, want[i].Pages)
		}
	}

	firstDiffs := ExpandSpans(nil, CoalesceDiffs(nil, first))
	if got, exp := ExpandSpans(firstDiffs[:0], want), ExpandSpans(nil, want); !reflect.DeepEqual(got, exp) {
		t.Fatalf("expanded into a used dst: %+v, want %+v", got, exp)
	}
	prefix := ExpandSpans(nil, CoalesceDiffs(nil, first))
	if after := ExpandSpans(prefix, want); !reflect.DeepEqual(after[:len(first)], ExpandSpans(nil, CoalesceDiffs(nil, first))) || !reflect.DeepEqual(after[len(first):], ExpandSpans(nil, want)) {
		t.Fatalf("expanded after a non-empty dst: %+v", after)
	}
}

func diffKey(d Diff) string {
	b, err := AppendFrame(nil, &Frame{Kind: FMsg, Payload: DiffReply{Diffs: []Diff{d}}})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// BenchmarkCoalesceDiffs is the join search's worst shape, a lock grant's
// chains at 32 procs: every diff its own header, nothing to join, so each
// diff walks every span before it. 60 is the most headers one message of
// the sim-modes workload carries (tsps/small, -scale, 32 procs).
func BenchmarkCoalesceDiffs(b *testing.B) {
	for _, n := range []int{8, 60, 250} {
		ds := make([]Diff, n)
		for i := range ds {
			cov := make([]int32, 32)
			cov[i%32] = int32(i)
			ds[i] = Diff{Page: int32(i / 4), Creator: int32(i % 32), From: int32(i), To: int32(i + 1), Covers: cov}
		}
		b.Run(fmt.Sprintf("headers=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				CoalesceDiffs(nil, ds)
			}
		})
	}
}
