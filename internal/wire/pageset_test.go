package wire

import (
	"reflect"
	"testing"
)

// pageSetCases spans the regimes the raw-or-span heuristic switches
// between: empty, singleton, sparse isolated pages (raw mode), one dense
// block (span mode), several adjacent runs (span mode), and a mix where
// raw narrowly wins.
var pageSetCases = [][]int32{
	nil,
	{0},
	{5},
	{3, 9, 40},                          // sparse: raw
	{7, 8},                              // one run of two: tie, raw
	{7, 8, 9},                           // one run of three: spans
	{0, 1, 2, 3, 4, 5, 6, 7},            // dense block: spans
	{4, 5, 6, 7, 20, 21, 22},            // two runs: spans
	{1, 3, 5, 7, 9, 11},                 // alternating: raw
	{10, 11, 30, 41, 52, 63},            // one short run + isolated: raw
	{100, 101, 102, 103, 200, 300, 301}, // mixed: spans
}

// enc hand-builds encoder output a primitive at a time — value-taking
// wrappers over the coder's encoding direction — for the inputs its own
// walkers never produce: a forced page-set mode, malformed spans, an
// overflowing count.
type enc struct{ coder }

func (e *enc) u8(v byte)   { e.coder.u8(&v) }
func (e *enc) i32(v int32) { e.coder.i32(&v) }
func (e *enc) i64(v int64) { e.coder.i64(&v) }
func (e *enc) count(n int) { e.coder.count(n, 1) }

func encodePageSet(t *testing.T, mode byte, pages []int32) []byte {
	t.Helper()
	e := &enc{}
	switch mode {
	case 0:
		e.u8(0)
		e.i32s(&pages)
	case 1:
		e.u8(1)
		spans := 0
		for i, p := range pages {
			if i == 0 || p != pages[i-1]+1 {
				spans++
			}
		}
		e.count(spans)
		for i := 0; i < len(pages); {
			j := i + 1
			for j < len(pages) && pages[j] == pages[j-1]+1 {
				j++
			}
			e.i32(pages[i])
			e.i32(pages[i] + int32(j-i))
			i = j
		}
	}
	return e.b
}

func decodePageSet(t *testing.T, b []byte) []int32 {
	t.Helper()
	d := coder{b: b, dec: true, ar: new(Arena)}
	var out []int32
	d.pageSet(&out)
	if d.err != nil {
		t.Fatalf("pageSet decode failed: %v", d.err)
	}
	if len(d.b) != 0 {
		t.Fatalf("pageSet left %d trailing bytes", len(d.b))
	}
	return out
}

// TestPageSetModesDecodeIdentically is the compression-transparency
// property: for every page list, the raw encoding and the span encoding
// decode to the same list, and the encoder's heuristic choice also
// round-trips to the input. Decoders therefore cannot tell which mode a
// peer chose — the heuristic is free to change without a version bump.
func TestPageSetModesDecodeIdentically(t *testing.T) {
	for _, pages := range pageSetCases {
		raw := decodePageSet(t, encodePageSet(t, 0, pages))
		spanned := decodePageSet(t, encodePageSet(t, 1, pages))
		if !reflect.DeepEqual(raw, spanned) {
			t.Errorf("%v: raw decode %v != span decode %v", pages, raw, spanned)
		}
		e := &enc{}
		e.pageSet(&pages)
		chosen := decodePageSet(t, e.b)
		if len(pages) == 0 {
			if chosen != nil {
				t.Errorf("empty list decoded as %v, want nil", chosen)
			}
			continue
		}
		if !reflect.DeepEqual(chosen, pages) {
			t.Errorf("%v: heuristic encoding decoded as %v", pages, chosen)
		}
	}
}

// TestPageSetHeuristicMatchesAccounting pins that the encoder's mode
// choice and FetchedBytes price the same structure: the accounted size is
// the 8-byte header plus exactly the cheaper payload, and the chosen
// encoding is never larger than the alternative.
func TestPageSetHeuristicMatchesAccounting(t *testing.T) {
	for _, pages := range pageSetCases {
		raw, span := 4*len(pages), 8*countRuns(pages)
		want := 8 + raw
		if span < raw {
			want = 8 + span
		}
		if got := FetchedBytes(pages); got != want {
			t.Errorf("%v: FetchedBytes = %d, want %d", pages, got, want)
		}
		e := &enc{}
		e.pageSet(&pages)
		alt := len(encodePageSet(t, 0, pages))
		if s := encodePageSet(t, 1, pages); len(s) < alt {
			alt = len(s)
		}
		if len(e.b) > alt {
			t.Errorf("%v: heuristic chose %d bytes, cheaper mode has %d", pages, len(e.b), alt)
		}
	}
}

// TestPageSetRejectsMalformedSpans pins the decoder's span validation:
// empty and inverted spans, unknown modes, and spans whose expansion
// would exceed the frame bound must all fail cleanly.
func TestPageSetRejectsMalformedSpans(t *testing.T) {
	cases := map[string]func(e *enc){
		"empty span":    func(e *enc) { e.u8(1); e.count(1); e.i32(5); e.i32(5) },
		"inverted span": func(e *enc) { e.u8(1); e.count(1); e.i32(9); e.i32(3) },
		"unknown mode":  func(e *enc) { e.u8(7); e.count(0) },
		"huge expansion": func(e *enc) {
			e.u8(1)
			e.count(2)
			e.i32(0)
			e.i32(1 << 30)
			e.i32(1 << 30)
			e.i32(1<<30 + 1<<29)
		},
	}
	for name, build := range cases {
		e := &enc{}
		build(e)
		d := coder{b: e.b, dec: true, ar: new(Arena)}
		var out []int32
		d.pageSet(&out)
		if d.err == nil {
			t.Errorf("%s: decoder accepted malformed page set", name)
		}
	}
}
