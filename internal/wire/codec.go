package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// ErrTruncated reports input that ended inside a frame or field.
var ErrTruncated = errors.New("wire: truncated input")

// enc is an append-based encoder.
type enc struct{ b []byte }

func (e *enc) u8(v byte)     { e.b = append(e.b, v) }
func (e *enc) bool(v bool)   { e.b = append(e.b, b2u(v)) }
func (e *enc) i32(v int32)   { e.b = binary.LittleEndian.AppendUint32(e.b, uint32(v)) }
func (e *enc) i64(v int64)   { e.b = binary.LittleEndian.AppendUint64(e.b, uint64(v)) }
func (e *enc) f64(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }
func (e *enc) count(n int)   { e.b = binary.AppendUvarint(e.b, uint64(n)) }

// reserve extends the buffer by n bytes in one step and returns them for
// the caller to store into: word lists (page images, diff runs, vector
// times) are sized once instead of grown an append at a time.
func (e *enc) reserve(n int) []byte {
	at := len(e.b)
	e.b = slices.Grow(e.b, n)[:at+n]
	return e.b[at:]
}

func (e *enc) i32s(vs []int32) {
	e.count(len(vs))
	dst := e.reserve(4 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
	}
}

func (e *enc) f64s(vs []float64) {
	e.count(len(vs))
	dst := e.reserve(8 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// pageSet encodes a sorted page list in raw-or-span form:
// a one-byte mode — 0 for the raw i32 list, 1 for run-length spans (a
// count of runs, then (lo, hi) half-open i32 pairs) — chosen per list by
// the same size heuristic FetchedBytes prices with, so sparse sets stay
// one word per page and dense sets collapse to two words per run. The
// run count pass is allocation-free; mode 1 is only chosen for strictly
// ascending run structure, which sorted deduplicated input (the protocol
// invariant) always has.
func (e *enc) pageSet(vs []int32) {
	runs := countRuns(vs)
	if 2*runs >= len(vs) {
		e.u8(0)
		e.i32s(vs)
		return
	}
	e.u8(1)
	e.count(runs)
	for i := 0; i < len(vs); {
		j := i + 1
		for j < len(vs) && vs[j] == vs[j-1]+1 {
			j++
		}
		e.i32(vs[i])
		e.i32(vs[i] + int32(j-i))
		i = j
	}
}

func (e *enc) rows(vs [][]int32) {
	e.count(len(vs))
	for _, row := range vs {
		e.i32s(row)
	}
}

func (e *enc) str(s string) {
	e.count(len(s))
	e.b = append(e.b, s...)
}

func (e *enc) bytes(b []byte) {
	e.count(len(b))
	e.b = append(e.b, b...)
}

func b2u(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// decArena is the chunked allocation state behind a decoder. Composite
// decode results (vector times, covers rows, run lists, diff lists, page
// refs) are carved out of per-type chunks rather than allocated one make
// per field: a departure or diff-reply frame carries dozens of tiny
// slices, and the arena collapses them into a handful of allocations.
// Every handed-out slice is capacity-capped (three-index), so each
// decoded frame still fully owns disjoint storage — nothing aliases, and
// appending to a decoded slice cannot clobber a neighbour. An arena may
// therefore also persist across frames (FrameReader holds one), which
// amortizes chunk refills over an entire connection.
type decArena struct {
	i32 []int32
	f64 []float64
	ref []PageRef
	run []Run
	df  []Diff
	iv  []OwnedInterval
	row [][]int32
}

// dec is a bounds-checked decoder over one frame body, drawing slice
// storage from ar.
type dec struct {
	b   []byte
	err error
	ar  *decArena
}

// arenaMin is the chunk size (in elements) of the decode arenas: small
// enough that a long-retained slice (a learned interval's vector time)
// pins little dead space, large enough to absorb a whole payload's worth
// of short slices in one allocation.
const arenaMin = 128

// arenaAlloc carves an owned n-element slice off the chunk *a, refilling
// the chunk when it runs dry.
func arenaAlloc[T any](a *[]T, n int) []T {
	if n > len(*a) {
		c := n
		if c < arenaMin {
			c = arenaMin
		}
		*a = make([]T, c)
	}
	out := (*a)[:n:n]
	*a = (*a)[n:]
	return out
}

func (d *dec) allocI32(n int) []int32   { return arenaAlloc(&d.ar.i32, n) }
func (d *dec) allocF64(n int) []float64 { return arenaAlloc(&d.ar.f64, n) }
func (d *dec) allocRef(n int) []PageRef { return arenaAlloc(&d.ar.ref, n) }

func (d *dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b) {
		d.fail(ErrTruncated)
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *dec) u8() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *dec) bool() bool { return d.u8() != 0 }

func (d *dec) i32() int32 {
	if b := d.take(4); b != nil {
		return int32(binary.LittleEndian.Uint32(b))
	}
	return 0
}

func (d *dec) i64() int64 {
	if b := d.take(8); b != nil {
		return int64(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func (d *dec) f64() float64 {
	if b := d.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// count reads an element count and bounds it by the bytes remaining, given
// each element occupies at least min bytes, so corrupt counts cannot force
// huge allocations. The bound is computed by division: multiplying the
// attacker-controlled count would overflow and defeat the guard.
func (d *dec) count(min int) int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(ErrTruncated)
		return 0
	}
	d.b = d.b[n:]
	if v > uint64(len(d.b))/uint64(min) {
		d.fail(fmt.Errorf("wire: count %d exceeds remaining input", v))
		return 0
	}
	return int(v)
}

func (d *dec) i32s() []int32 {
	n := d.count(4)
	if n == 0 {
		return nil
	}
	src := d.take(4 * n)
	if src == nil {
		return nil
	}
	out := d.allocI32(n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return out
}

func (d *dec) f64s() []float64 {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	src := d.take(8 * n)
	if src == nil {
		return nil
	}
	out := d.allocF64(n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return out
}

// pageSet decodes the raw-or-span page-list form of enc.pageSet. Mode-1
// spans are validated (hi > lo) and their total expansion is bounded
// before any allocation, so a corrupt span list cannot force a huge
// decoded slice; expansion lands in the arena like every other i32
// field.
func (d *dec) pageSet() []int32 {
	switch mode := d.u8(); mode {
	case 0:
		return d.i32s()
	case 1:
		n := d.count(8)
		if n == 0 {
			return nil
		}
		spans := d.take(8 * n)
		if spans == nil {
			return nil
		}
		total := 0
		for i := 0; i < n; i++ {
			lo := int32(binary.LittleEndian.Uint32(spans[8*i:]))
			hi := int32(binary.LittleEndian.Uint32(spans[8*i+4:]))
			if hi <= lo {
				d.fail(fmt.Errorf("wire: page span [%d, %d) is empty or inverted", lo, hi))
				return nil
			}
			total += int(hi - lo)
			if total > MaxFrame/4 {
				d.fail(fmt.Errorf("wire: page spans expand to %d pages", total))
				return nil
			}
		}
		out := d.allocI32(total)[:0]
		for i := 0; i < n; i++ {
			lo := int32(binary.LittleEndian.Uint32(spans[8*i:]))
			hi := int32(binary.LittleEndian.Uint32(spans[8*i+4:]))
			for p := lo; p < hi; p++ {
				out = append(out, p)
			}
		}
		return out
	default:
		d.fail(fmt.Errorf("wire: unknown page-set mode %d", mode))
		return nil
	}
}

func (d *dec) rows() [][]int32 {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := arenaAlloc(&d.ar.row, n)
	for i := range out {
		out[i] = d.i32s()
	}
	return out
}

func (d *dec) str() string {
	n := d.count(1)
	if n == 0 {
		return ""
	}
	return string(d.take(n))
}

func (d *dec) bytesv() []byte {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	return append([]byte(nil), d.take(n)...)
}

// ---- payload codec ----

func (e *enc) payload(p any) error {
	switch v := p.(type) {
	case nil:
		e.u8(pNil)
	case Float64s:
		e.u8(pFloat64s)
		e.f64s(v)
	case []float64:
		// The mp layer's native payload type; decodes as Float64s.
		e.u8(pFloat64s)
		e.f64s(v)
	case DiffRequest:
		e.u8(pDiffRequest)
		e.i32(v.Req)
		e.i32s(v.Pages)
		e.rows(v.Applied)
		e.bool(v.Direct)
	case DiffReply:
		e.u8(pDiffReply)
		e.diffs(v.Diffs)
		e.pageOwners(v.Redirects)
	case Grant:
		e.u8(pGrant)
		e.intervals(v.Intervals)
		e.diffs(v.Served)
		e.spans(v.Pushed)
		e.i32(v.Bytes)
	case Arrival:
		e.u8(pArrival)
		e.i32s(v.VC)
		e.intervals(v.Intervals)
		e.needs(v.Needs)
		e.pageSet(v.Fetched)
	case Depart:
		e.u8(pDepart)
		e.i64(v.Time)
		e.intervals(v.Intervals)
		e.diffs(v.Served)
		e.nodePages(v.Fetched)
	case Push:
		e.u8(pPush)
		e.i32(v.Ivl)
		e.count(len(v.Chunks))
		for _, ch := range v.Chunks {
			e.i32(ch.Lo)
			e.f64s(ch.Vals)
		}
	case SyncInfo:
		e.u8(pSyncInfo)
		e.i32s(v.VC)
		e.needs(v.Needs)
		e.needs(v.Floors)
	case Start:
		e.u8(pStart)
		e.str(v.App)
		e.str(v.Set)
		e.i32(v.N)
		e.i64(v.Overhead)
		e.bool(v.Verify)
	case Done:
		e.u8(pDone)
		e.f64(v.Checksum)
		e.str(v.Err)
	case Update:
		e.u8(pUpdate)
		e.i32(v.Epoch)
		e.spans(v.Spans)
	case Checkpoint:
		e.u8(pCheckpoint)
		e.i32(v.Node)
		e.i32(v.Epoch)
		e.bool(v.Full)
		e.i32s(v.VC)
		e.i32s(v.LastBar)
		e.intervals(v.Intervals)
		e.count(len(v.Frames))
		for _, fr := range v.Frames {
			e.i32(fr.Page)
			e.u8(fr.Prot)
			e.bool(fr.Dirty)
			e.i32(fr.LastDiffed)
			e.i32s(fr.Applied)
			e.f64s(fr.Words)
			e.f64s(fr.Twin)
		}
		e.diffs(v.Diffs)
		e.pageSet(v.Fetched)
		e.bytes(v.Adapt)
		e.pageOwners(v.Owners)
	case JobSpec:
		e.u8(pJobSpec)
		e.i64(v.ID)
		e.str(v.App)
		e.str(v.Set)
		e.str(v.System)
		e.str(v.Backend)
		e.i32(v.Procs)
		e.bool(v.Adapt)
		e.bool(v.Scale)
		e.bool(v.Verify)
	case JobDecision:
		e.u8(pJobDecision)
		e.i64(v.ID)
		e.str(v.Reason)
	case JobResult:
		e.u8(pJobResult)
		e.i64(v.ID)
		e.f64(v.Checksum)
		e.i64(v.VirtualNS)
		e.i64(v.WallNS)
		e.i64(v.Msgs)
		e.i64(v.Bytes)
		e.i64(v.Segv)
		e.i64(v.DiffFetches)
		e.i64(v.Barriers)
		e.i64(v.LockAcquires)
		e.str(v.Err)
	default:
		return fmt.Errorf("wire: unencodable payload type %T", p)
	}
	return nil
}

func (e *enc) runs(rs []Run) {
	e.count(len(rs))
	for _, r := range rs {
		e.i32(r.Off)
		e.f64s(r.Vals)
	}
}

func (e *enc) spans(ss []DiffSpan) {
	e.count(len(ss))
	for _, s := range ss {
		e.i32(s.Page)
		e.i32(s.Creator)
		e.i32(s.From)
		e.i32(s.To)
		e.bool(s.Whole)
		e.i32s(s.Covers)
		e.count(len(s.Pages))
		for _, rs := range s.Pages {
			e.runs(rs)
		}
	}
}

func (e *enc) diffs(ds []Diff) {
	e.count(len(ds))
	for _, d := range ds {
		e.i32(d.Page)
		e.i32(d.Creator)
		e.i32(d.From)
		e.i32(d.To)
		e.bool(d.Whole)
		e.i32s(d.Covers)
		e.runs(d.Runs)
	}
}

func (e *enc) intervals(ivs []OwnedInterval) {
	e.count(len(ivs))
	for _, oi := range ivs {
		e.i32(oi.Owner)
		e.i32(oi.Idx)
		e.count(len(oi.IV.Pages))
		for _, pr := range oi.IV.Pages {
			e.i32(pr.Page)
			e.bool(pr.Whole)
			e.i32(pr.ExtLo)
			e.i32(pr.ExtHi)
		}
		e.i32s(oi.IV.VC)
		e.bool(oi.IV.Split)
	}
}

func (e *enc) nodePages(ns []NodePages) {
	e.count(len(ns))
	for _, n := range ns {
		e.i32(n.Node)
		e.pageSet(n.Pages)
	}
}

func (e *enc) pageOwners(ps []PageOwner) {
	e.count(len(ps))
	for _, p := range ps {
		e.i32(p.Page)
		e.i32(p.Owner)
	}
}

func (e *enc) needs(ns []WSyncNeed) {
	e.count(len(ns))
	for _, n := range ns {
		e.i32s(n.Pages)
		e.rows(n.Applied)
	}
}

func (d *dec) payload() any {
	switch k := d.u8(); k {
	case pNil:
		return nil
	case pFloat64s:
		return Float64s(d.f64s())
	case pDiffRequest:
		return DiffRequest{Req: d.i32(), Pages: d.i32s(), Applied: d.rows(), Direct: d.bool()}
	case pDiffReply:
		return DiffReply{Diffs: d.diffs(), Redirects: d.pageOwners()}
	case pGrant:
		return Grant{Intervals: d.intervals(), Served: d.diffs(), Pushed: d.spans(), Bytes: d.i32()}
	case pArrival:
		return Arrival{VC: d.i32s(), Intervals: d.intervals(), Needs: d.needs(), Fetched: d.pageSet()}
	case pDepart:
		return Depart{Time: d.i64(), Intervals: d.intervals(), Served: d.diffs(), Fetched: d.nodePages()}
	case pPush:
		p := Push{Ivl: d.i32()}
		n := d.count(5)
		for i := 0; i < n; i++ {
			p.Chunks = append(p.Chunks, Chunk{Lo: d.i32(), Vals: d.f64s()})
		}
		return p
	case pSyncInfo:
		return SyncInfo{VC: d.i32s(), Needs: d.needs(), Floors: d.needs()}
	case pStart:
		return Start{App: d.str(), Set: d.str(), N: d.i32(), Overhead: d.i64(), Verify: d.bool()}
	case pDone:
		return Done{Checksum: d.f64(), Err: d.str()}
	case pUpdate:
		return Update{Epoch: d.i32(), Spans: d.spans()}
	case pCheckpoint:
		ck := Checkpoint{
			Node: d.i32(), Epoch: d.i32(), Full: d.bool(),
			VC: d.i32s(), LastBar: d.i32s(),
			Intervals: d.intervals(),
		}
		n := d.count(12)
		for i := 0; i < n; i++ {
			fr := PageFrame{
				Page: d.i32(), Prot: d.u8(), Dirty: d.bool(),
				LastDiffed: d.i32(), Applied: d.i32s(), Words: d.f64s(),
				Twin: d.f64s(),
			}
			ck.Frames = append(ck.Frames, fr)
			if d.err != nil {
				return ck
			}
		}
		ck.Diffs = d.diffs()
		ck.Fetched = d.pageSet()
		ck.Adapt = d.bytesv()
		ck.Owners = d.pageOwners()
		return ck
	case pJobSpec:
		return JobSpec{
			ID: d.i64(), App: d.str(), Set: d.str(), System: d.str(),
			Backend: d.str(), Procs: d.i32(),
			Adapt: d.bool(), Scale: d.bool(), Verify: d.bool(),
		}
	case pJobDecision:
		return JobDecision{ID: d.i64(), Reason: d.str()}
	case pJobResult:
		return JobResult{
			ID: d.i64(), Checksum: d.f64(), VirtualNS: d.i64(),
			WallNS: d.i64(), Msgs: d.i64(), Bytes: d.i64(), Segv: d.i64(),
			DiffFetches: d.i64(), Barriers: d.i64(), LockAcquires: d.i64(),
			Err: d.str(),
		}
	default:
		d.fail(fmt.Errorf("wire: unknown payload kind %d", k))
		return nil
	}
}

func (d *dec) runs() []Run {
	n := d.count(5)
	if n == 0 {
		return nil
	}
	out := arenaAlloc(&d.ar.run, n)[:0]
	for i := 0; i < n; i++ {
		out = append(out, Run{Off: d.i32(), Vals: d.f64s()})
		if d.err != nil {
			return out
		}
	}
	return out
}

func (d *dec) diffs() []Diff {
	n := d.count(18)
	if n == 0 {
		return nil
	}
	out := arenaAlloc(&d.ar.df, n)[:0]
	for i := 0; i < n; i++ {
		df := Diff{
			Page: d.i32(), Creator: d.i32(), From: d.i32(), To: d.i32(),
			Whole: d.bool(), Covers: d.i32s(),
		}
		df.Runs = d.runs()
		out = append(out, df)
		if d.err != nil {
			return out
		}
	}
	return out
}

func (d *dec) spans() []DiffSpan {
	n := d.count(19)
	var out []DiffSpan
	for i := 0; i < n; i++ {
		s := DiffSpan{
			Page: d.i32(), Creator: d.i32(), From: d.i32(), To: d.i32(),
			Whole: d.bool(), Covers: d.i32s(),
		}
		pn := d.count(1)
		for j := 0; j < pn; j++ {
			s.Pages = append(s.Pages, d.runs())
			if d.err != nil {
				break
			}
		}
		out = append(out, s)
		if d.err != nil {
			return out
		}
	}
	return out
}

func (d *dec) intervals() []OwnedInterval {
	n := d.count(10)
	if n == 0 {
		return nil
	}
	out := arenaAlloc(&d.ar.iv, n)[:0]
	for i := 0; i < n; i++ {
		oi := OwnedInterval{Owner: d.i32(), Idx: d.i32()}
		pn := d.count(13)
		if pn > 0 {
			refs := d.allocRef(pn)
			for j := range refs {
				refs[j] = PageRef{Page: d.i32(), Whole: d.bool(), ExtLo: d.i32(), ExtHi: d.i32()}
			}
			oi.IV.Pages = refs
		}
		oi.IV.VC = d.i32s()
		oi.IV.Split = d.bool()
		out = append(out, oi)
		if d.err != nil {
			return out
		}
	}
	return out
}

func (d *dec) nodePages() []NodePages {
	n := d.count(5)
	var out []NodePages
	for i := 0; i < n; i++ {
		out = append(out, NodePages{Node: d.i32(), Pages: d.pageSet()})
		if d.err != nil {
			return out
		}
	}
	return out
}

func (d *dec) pageOwners() []PageOwner {
	n := d.count(8)
	var out []PageOwner
	for i := 0; i < n; i++ {
		out = append(out, PageOwner{Page: d.i32(), Owner: d.i32()})
		if d.err != nil {
			return out
		}
	}
	return out
}

func (d *dec) needs() []WSyncNeed {
	n := d.count(2)
	var out []WSyncNeed
	for i := 0; i < n; i++ {
		out = append(out, WSyncNeed{Pages: d.i32s(), Applied: d.rows()})
		if d.err != nil {
			return out
		}
	}
	return out
}

// ---- framing ----

// AppendFrame encodes f (length prefix included) onto dst and returns the
// extended slice. It fails only on an unencodable payload type or an
// oversized frame.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	e := &enc{b: dst}
	start := len(e.b)
	e.i32(0) // length, patched below
	e.u8(Version)
	e.u8(f.Kind)
	e.i32(f.From)
	e.i32(f.To)
	e.i32(f.Tag)
	e.i32(f.Bytes)
	e.i64(f.Time)
	if err := e.payload(f.Payload); err != nil {
		return dst, err
	}
	body := len(e.b) - start - 4
	if body > MaxFrame {
		return dst, fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame", body)
	}
	binary.LittleEndian.PutUint32(e.b[start:], uint32(body))
	return e.b, nil
}

// ParseFrame decodes one frame from b, returning the frame and the number
// of bytes consumed.
func ParseFrame(b []byte) (*Frame, int, error) {
	f := new(Frame)
	var ar decArena
	n, err := parseFrameInto(f, b, &ar)
	if err != nil {
		return nil, 0, err
	}
	return f, n, nil
}

// parseFrameInto decodes one frame from b into *f, drawing slice storage
// from ar. The decoded frame fully owns its storage (the arena never
// reuses handed-out chunks), so ar may be shared across frames and f may
// be reused once its previous contents are dead.
func parseFrameInto(f *Frame, b []byte, ar *decArena) (int, error) {
	if len(b) < 4 {
		return 0, ErrTruncated
	}
	body := binary.LittleEndian.Uint32(b)
	if body > MaxFrame {
		return 0, fmt.Errorf("wire: frame length %d exceeds MaxFrame", body)
	}
	if uint64(len(b)-4) < uint64(body) {
		return 0, ErrTruncated
	}
	d := dec{b: b[4 : 4+body], ar: ar}
	if v := d.u8(); d.err == nil && v != Version {
		return 0, fmt.Errorf("wire: version %d, want %d", v, Version)
	}
	*f = Frame{
		Kind: d.u8(),
		From: d.i32(), To: d.i32(),
		Tag: d.i32(), Bytes: d.i32(), Time: d.i64(),
	}
	f.Payload = d.payload()
	if d.err != nil {
		return 0, d.err
	}
	if len(d.b) != 0 {
		return 0, fmt.Errorf("wire: %d trailing bytes in frame", len(d.b))
	}
	switch f.Kind {
	case FHello, FMsg, FHand, FReq, FReply, FStart, FDone, FCkpt,
		FJob, FJobAccept, FJobReject, FJobResult, FPoolHello:
	default:
		return 0, fmt.Errorf("wire: unknown frame kind %d", f.Kind)
	}
	return 4 + int(body), nil
}

// ReadRawFrame reads one length-prefixed frame from r without decoding
// it, returning the full encoded bytes (length prefix included) in fresh
// storage. Switches use it to route frames by destination without
// re-encoding payloads; hot paths use ReadRawFrameInto with a pooled
// buffer instead.
func ReadRawFrame(r io.Reader) ([]byte, error) {
	return ReadRawFrameInto(r, nil)
}

// RawFields returns the kind, source, destination, and accounted byte
// count of a raw frame read by ReadRawFrame, without decoding the
// payload (switches route and account from these alone).
func RawFields(raw []byte) (kind byte, from, to, bytes int32, err error) {
	// layout: len(4) version(1) kind(1) from(4) to(4) tag(4) bytes(4) ...
	if len(raw) < 22 {
		return 0, 0, 0, 0, ErrTruncated
	}
	if raw[4] != Version {
		return 0, 0, 0, 0, fmt.Errorf("wire: version %d, want %d", raw[4], Version)
	}
	return raw[5],
		int32(binary.LittleEndian.Uint32(raw[6:])),
		int32(binary.LittleEndian.Uint32(raw[10:])),
		int32(binary.LittleEndian.Uint32(raw[18:])),
		nil
}

// PatchRawTo rewrites the destination field of an encoded frame in place
// (broadcasts encode a shared payload once and retarget the header per
// recipient).
func PatchRawTo(raw []byte, to int32) {
	binary.LittleEndian.PutUint32(raw[10:], uint32(to))
}

// WriteFrame encodes f and writes it to w in one call.
func WriteFrame(w io.Writer, f *Frame) error {
	b, err := AppendFrame(nil, f)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadFrame reads exactly one frame from r. On a cleanly closed stream it
// returns io.EOF.
func ReadFrame(r io.Reader) (*Frame, error) {
	raw, err := ReadRawFrame(r)
	if err != nil {
		return nil, err
	}
	f, _, err := ParseFrame(raw)
	return f, err
}
