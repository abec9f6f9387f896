package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"testing"
)

// sampleFrames covers every frame kind and every payload type, including
// empty and nil slices (which decode as nil — the canonical form). The
// Fetched relay lists appear both sparse (raw mode of the version-7
// page-set encoding) and dense (span mode), so the corpus seeds exercise
// both branches of the codec.
func sampleFrames() []*Frame {
	return []*Frame{
		{Kind: FHello, From: 3},
		{Kind: FMsg, From: 1, To: 2, Tag: 7, Bytes: 128, Time: 123456, Payload: []float64{1.5, -2.25, 0}},
		{Kind: FMsg, From: 0, To: 4, Tag: 2, Bytes: 0, Time: 1},
		{Kind: FMsg, From: 2, To: 0, Tag: 101, Bytes: 4112, Time: 99, Payload: Push{
			Ivl:    9,
			Chunks: []Chunk{{Lo: 512, Vals: []float64{3.5, 4.5}}, {Lo: 1024, Vals: []float64{-1}}},
		}},
		{Kind: FReq, From: 1, To: 0, Tag: 44, Bytes: 32, Payload: &DiffRequest{
			Req:     1,
			Pages:   []int32{3, 9},
			Applied: [][]int32{{1, 0, 2}, {0, 0, 5}},
		}},
		{Kind: FReq, From: 2, To: 0, Tag: 45, Bytes: 24, Payload: &DiffRequest{
			Req:     2,
			Pages:   []int32{14},
			Applied: [][]int32{{0, 1, 0}},
			Direct:  true,
		}},
		{Kind: FReply, From: 0, To: 1, Tag: 44, Bytes: 4128, Time: 5555, Payload: &DiffReply{
			Diffs: []Diff{
				{Page: 3, Creator: 0, From: 1, To: 4, Covers: []int32{4, 0, 2},
					Runs: []Run{{Off: 16, Vals: []float64{7, 8, 9}}}},
				{Page: 9, Creator: 2, From: 0, To: 5, Whole: true, Covers: []int32{1, 0, 5},
					Runs: []Run{{Off: 0, Vals: []float64{1, 2}}}},
			},
		}},
		{Kind: FReply, From: 2, To: 1, Tag: 45, Bytes: 24, Time: 500, Payload: &DiffReply{
			Diffs:     []Diff{{Page: 7, Creator: 2, From: 2, To: 3, Covers: []int32{0, 1, 3}}},
			Redirects: []PageOwner{{Page: 8, Owner: 0}, {Page: 14, Owner: 1}},
		}},
		{Kind: FHand, From: 2, To: 1, Tag: 1, Payload: Grant{
			Intervals: []OwnedInterval{{Owner: 2, Idx: 5, IV: Interval{
				Pages: []PageRef{{Page: 3, ExtLo: 12, ExtHi: 200}, {Page: 4, Whole: true, ExtLo: 0, ExtHi: 512}},
			}}},
			Served: []Diff{{Page: 4, Creator: 2, From: 4, To: 5, Covers: []int32{0, 0, 5}}},
			Bytes:  60,
		}},
		{Kind: FHand, From: 1, To: 2, Tag: 1, Payload: Grant{
			Intervals: []OwnedInterval{{Owner: 1, Idx: 6, IV: Interval{
				Pages: []PageRef{{Page: 9}},
			}}},
			Pushed: []DiffSpan{
				{Page: 9, Creator: 1, From: 5, To: 6, Covers: []int32{2, 6, 5},
					Pages: [][]Run{
						{{Off: 8, Vals: []float64{1.25, -3}}},
						{{Off: 0, Vals: []float64{4.5}}, {Off: 64, Vals: []float64{2}}},
					}},
				{Page: 12, Creator: 0, From: 1, To: 2, Whole: true, Covers: []int32{2, 0, 0},
					Pages: [][]Run{{{Off: 0, Vals: []float64{7}}}}},
			},
			Bytes: 96,
		}},
		{Kind: FHand, From: 0, To: 2, Tag: 2, Payload: &Depart{
			Time:      987654321,
			Intervals: []OwnedInterval{{Owner: 1, Idx: 2}},
			Fetched:   []NodePages{{Node: 0, Pages: []int32{7, 8}}, {Node: 2, Pages: []int32{7}}},
		}},
		// Page-less intervals only: each is 9 bytes on the wire (owner,
		// index, page count), the least an interval list's count may
		// assume of what follows it.
		{Kind: FHand, From: 0, To: 3, Tag: 2, Payload: &Depart{
			Time:      5,
			Intervals: []OwnedInterval{{Owner: 1, Idx: 2}, {Owner: 2, Idx: 7}, {Owner: 3, Idx: 1}},
		}},
		{Kind: FHand, From: 0, To: 1, Tag: 2, Payload: &Depart{
			Time:      123123123,
			Intervals: []OwnedInterval{{Owner: 2, Idx: 3}},
			Fetched: []NodePages{
				// Dense list: span mode (two runs beat seven raw words).
				{Node: 1, Pages: []int32{4, 5, 6, 7, 20, 21, 22}},
				{Node: 2, Pages: []int32{3, 30}},
			},
		}},
		{Kind: FMsg, From: 0, To: 1, Tag: 5, Payload: Arrival{
			VC:        []int32{4, 5, 6},
			Intervals: []OwnedInterval{{Owner: 0, Idx: 4, IV: Interval{Pages: []PageRef{{Page: 11}}}}},
			Needs:     []WSyncNeed{{Pages: []int32{11}, Applied: [][]int32{{1, 2, 3}}}},
			Fetched:   []int32{11, 12},
		}},
		{Kind: FMsg, From: 1, To: 0, Tag: 5, Payload: Arrival{
			VC: []int32{7, 8, 9},
			// Dense fetch set: one run, span mode.
			Fetched: []int32{40, 41, 42, 43, 44, 45, 46, 47},
		}},
		{Kind: FMsg, From: 2, To: 1, Tag: 102, Bytes: 4144, Time: 777, Payload: Update{
			Epoch: 6,
			Spans: []DiffSpan{
				{Page: 7, Creator: 2, From: 5, To: 6, Covers: []int32{1, 3, 6},
					Pages: [][]Run{
						{{Off: 4, Vals: []float64{2.5}}, {Off: 100, Vals: []float64{-4, 0.5}}},
						nil,
						{{Off: 0, Vals: []float64{9.75}}},
					}},
			},
		}},
		{Kind: FMsg, From: 1, To: 0, Tag: 6, Payload: SyncInfo{VC: []int32{9, 9, 9}}},
		{Kind: FMsg, From: 2, To: 1, Tag: 6, Payload: SyncInfo{
			VC:     []int32{3, 7, 2},
			Needs:  []WSyncNeed{{Pages: []int32{4}, Applied: [][]int32{{1, 0, 2}}}},
			Floors: []WSyncNeed{{Pages: []int32{8, 9}, Applied: [][]int32{{3, 1, 0}, {0, 1, 2}}}},
		}},
		{Kind: FStart, To: 3, Payload: Start{App: "jacobi", Set: "small", N: 8, Overhead: 1500, Verify: true}},
		{Kind: FDone, From: 3, Time: 42424242, Payload: Done{Checksum: 40399.25, Err: ""}},
		{Kind: FDone, From: 1, Payload: Done{Err: "rank 1 panicked: boom"}},
		{Kind: FCkpt, From: 2, Tag: 4, Payload: Checkpoint{
			Node: 2, Epoch: 4, Full: true,
			VC: []int32{3, 1, 4}, LastBar: []int32{3, 1, 3},
			Intervals: []OwnedInterval{
				{Owner: 2, Idx: 4, IV: Interval{Pages: []PageRef{{Page: 5, ExtLo: 0, ExtHi: 512}}}},
				{Owner: 0, Idx: 3, IV: Interval{Pages: []PageRef{{Page: 5}, {Page: 6, Whole: true}}}},
			},
			Frames: []PageFrame{
				{Page: 5, Prot: 2, Dirty: true, LastDiffed: 4, Applied: []int32{3, 0, 4},
					Words: []float64{1.5, 0, -2}, Twin: []float64{1.5, 0, -3}},
				{Page: 6, Prot: 0, LastDiffed: 0, Applied: []int32{2, 0, 0}, Words: []float64{7}},
			},
			Diffs: []Diff{
				{Page: 5, Creator: 2, From: 2, To: 4, Covers: []int32{3, 0, 4},
					Runs: []Run{{Off: 2, Vals: []float64{-2}}}},
				{Page: 6, Creator: 0, From: 0, To: 2, Whole: true, Covers: []int32{2, 0, 0},
					Runs: []Run{{Off: 0, Vals: []float64{7}}}},
			},
			Fetched: []int32{5, 6},
			Adapt:   []byte{1, 0, 9, 255},
		}},
		{Kind: FCkpt, From: 1, Tag: 5, Payload: Checkpoint{
			Node: 1, Epoch: 5,
			VC: []int32{4, 6, 4}, LastBar: []int32{4, 5, 4},
		}},
		{Kind: FJob, Tag: 17, Payload: JobSpec{
			App: "jacobi", Set: "small", System: "tmk", Procs: 4,
			Adapt: true, Verify: true,
		}},
		{Kind: FJob, To: 1, Tag: 9, Payload: JobSpec{
			ID: 42, App: "spmv", Set: "bound", Backend: "net", Procs: 8, Scale: true,
		}},
		{Kind: FJobAccept, Tag: 17, Payload: JobDecision{ID: 42}},
		{Kind: FJobReject, Tag: 18, Payload: JobDecision{Reason: "queue full"}},
		{Kind: FJobReject, Tag: 19, Payload: JobDecision{Reason: "svc: no executor with 8 ranks (max capacity 4)"}},
		{Kind: FJobResult, From: 1, Tag: 17, Payload: JobResult{
			ID: 42, Checksum: 40399.25, VirtualNS: 123456789, WallNS: 987654,
			Msgs: 320, Bytes: 81920, Segv: 12, DiffFetches: 7,
			Barriers: 33, LockAcquires: 5,
		}},
		{Kind: FJobResult, From: 2, Tag: 3, Payload: JobResult{
			ID: 43, Err: "unknown app \"nope\"",
		}},
		{Kind: FPoolHello, From: 1, Tag: 8},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for i, f := range sampleFrames() {
		b, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatalf("frame %d: encode: %v", i, err)
		}
		got, n, err := ParseFrame(b)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		if n != len(b) {
			t.Fatalf("frame %d: consumed %d of %d bytes", i, n, len(b))
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("frame %d: roundtrip mismatch:\n got %#v\nwant %#v", i, got, f)
		}
	}
}

func TestFrameStream(t *testing.T) {
	var buf bytes.Buffer
	frames := sampleFrames()
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: stream mismatch", i)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected EOF at stream end, got %v", err)
	}
}

func TestRawRouting(t *testing.T) {
	f := &Frame{Kind: FMsg, From: 5, To: 9, Tag: 1, Payload: []float64{1}}
	b, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ReadRawFrame(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, b) {
		t.Fatal("ReadRawFrame did not return the exact frame bytes")
	}
	kind, from, to, bytes, err := RawFields(raw)
	if err != nil || kind != FMsg || from != 5 || to != 9 || bytes != 0 {
		t.Fatalf("RawFields = (%d, %d, %d, %d, %v)", kind, from, to, bytes, err)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	good, err := AppendFrame(nil, sampleFrames()[4])
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":         {},
		"short header":  good[:3],
		"truncated":     good[:len(good)-2],
		"bad version":   append([]byte{good[0], good[1], good[2], good[3], 99}, good[5:]...),
		"bad kind":      append([]byte{good[0], good[1], good[2], good[3], good[4], 200}, good[6:]...),
		"huge length":   {0xff, 0xff, 0xff, 0xff},
		"trailing junk": append(appendLen(good), 1, 2, 3),
	}
	for name, b := range cases {
		if _, _, err := ParseFrame(b); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
}

// appendLen rewrites the length prefix to claim three extra bytes exist
// inside the frame body.
func appendLen(good []byte) []byte {
	b := append([]byte(nil), good...)
	n := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	n += 3
	b[0], b[1], b[2], b[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	return b
}

// TestCountOverflowRejected crafts a frame whose payload claims 2^61
// float64s: the element-size bound must reject it by division — a
// multiplied bound overflows and the decoder would panic in makeslice.
func TestCountOverflowRejected(t *testing.T) {
	e := &enc{}
	e.i32(0) // length, patched below
	e.u8(Version)
	e.u8(FMsg)
	e.i32(1) // from
	e.i32(2) // to
	e.i32(3) // tag
	e.i32(4) // bytes
	e.i64(5) // time
	e.u8(pFloat64s)
	e.b = append(e.b, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20) // uvarint 2^61
	body := len(e.b) - 4
	e.b[0], e.b[1], e.b[2], e.b[3] = byte(body), byte(body>>8), byte(body>>16), byte(body>>24)
	if _, _, err := ParseFrame(e.b); err == nil {
		t.Fatal("decoder accepted a 2^61-element count")
	}
}

func TestUnencodablePayload(t *testing.T) {
	if _, err := AppendFrame(nil, &Frame{Kind: FMsg, Payload: struct{ X int }{1}}); err == nil {
		t.Fatal("encode accepted an unencodable payload")
	}
}

// awkwardWords are float64 bit patterns a value-level copy could rewrite:
// quiet and signalling NaNs with payloads, both signs, both zeros, the
// infinities and a denormal. The word lists of the codec move bits.
var awkwardWords = []uint64{
	0x7ff8000000000001, 0x7ff0000000000001, 0xfff8dead0000beef, 0xfff0000000000123,
	0x0000000000000000, 0x8000000000000000, 0x7ff0000000000000, 0xfff0000000000000,
	0x0000000000000001, 0x3ff0000000000000,
}

// awkwardFrames carries awkwardWords through every f64s site of the codec
// that a recovery record or a diff payload uses.
func awkwardFrames() []*Frame {
	vals := make([]float64, len(awkwardWords))
	for i, w := range awkwardWords {
		vals[i] = math.Float64frombits(w)
	}
	return []*Frame{
		{Kind: FMsg, From: 1, To: 2, Payload: vals},
		{Kind: FReply, Payload: DiffReply{Diffs: []Diff{{Page: 1, Covers: []int32{1, -1}, Runs: []Run{{Off: 3, Vals: vals}}}}}},
		{Kind: FCkpt, Payload: Checkpoint{VC: []int32{math.MinInt32, math.MaxInt32}, Frames: []PageFrame{
			{Page: 2, Applied: []int32{0, -7}, Words: vals, Twin: vals[:4]},
		}}},
	}
}

// TestWordListsBitExact pins the bulk f64s/i32s paths: every word of a
// list lands in the frame as its little-endian bits, in order, and decodes
// back to the same bits — NaN payloads and the sign of zero included.
func TestWordListsBitExact(t *testing.T) {
	var image []byte
	for _, w := range awkwardWords {
		image = binary.LittleEndian.AppendUint64(image, w)
	}
	for i, f := range awkwardFrames() {
		b, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatalf("frame %d: encode: %v", i, err)
		}
		if !bytes.Contains(b, image) {
			t.Fatalf("frame %d: the word list's bits are not in the encoding", i)
		}
		got, _, err := ParseFrame(b)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		var vals []float64
		switch p := got.Payload.(type) {
		case []float64:
			vals = p
		case *DiffReply:
			vals = p.Diffs[0].Runs[0].Vals
		case Checkpoint:
			vals = p.Frames[0].Words
			if a, w := p.Frames[0].Applied, p.VC; a[1] != -7 || w[0] != math.MinInt32 || w[1] != math.MaxInt32 {
				t.Fatalf("frame %d: i32 lists decoded as %v, %v", i, a, w)
			}
		}
		if len(vals) != len(awkwardWords) {
			t.Fatalf("frame %d: decoded %d words, want %d", i, len(vals), len(awkwardWords))
		}
		for j, v := range vals {
			if math.Float64bits(v) != awkwardWords[j] {
				t.Fatalf("frame %d word %d: %#x decoded as %#x", i, j, awkwardWords[j], math.Float64bits(v))
			}
		}
		// Appending to a buffer with spare capacity and stale contents must
		// produce the same bytes as encoding from nil.
		stale := bytes.Repeat([]byte{0xa5}, 2*len(b))
		if again, err := AppendFrame(stale[:0], f); err != nil || !bytes.Equal(again, b) {
			t.Fatalf("frame %d: encoding into a reused buffer differs (err %v)", i, err)
		}
	}
}
