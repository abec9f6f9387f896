package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"sdsm/internal/slab"
)

// ErrTruncated reports input that ended inside a frame or field.
var ErrTruncated = errors.New("wire: truncated input")

// coder walks wire values in one of two directions. Encoding (dec false)
// appends every visited field to b; decoding (dec true) consumes b and
// stores every field through the same pointer, into zero values whose
// slice storage comes from ar. Each type has exactly one walker, which
// names its fields once in wire order, so the two directions cannot
// disagree and a new field is one line. Decoding is bounds-checked with
// a latched error: the first failure drops the rest of the input, so
// every later primitive is a no-op and every later count reads zero.
// Encoding never stores through a field pointer — senders share diffs
// and interval records across goroutines.
type coder struct {
	b   []byte
	dec bool
	err error
	ar  *Arena // what decoding carves from; made on first use when none was lent
}

// encoding is the arena of every encoding coder: encoding carves nothing,
// and the walkers name their decode slabs (list's argument) in both
// directions, so it stays empty and is only ever read.
var encoding Arena

// Arena is the storage decoded frames are carved from. Composite decode
// results (vector times, covers rows, run lists, diff lists, page refs,
// float payloads) come from per-type slabs rather than one make per
// field: a departure or diff-reply frame carries dozens of tiny slices,
// and the slabs collapse them into a handful of blocks. Every carve is
// capacity-capped (three-index), so each decoded frame owns disjoint
// storage — nothing aliases, and appending to a decoded slice cannot
// clobber a neighbour — and a carve never moves, so a frame stays valid
// across any number of later decodes.
//
// An Arena is run-lifetime storage: decoded frames own their storage
// until the arena's owner calls Rewind, and not beyond. A rank's socket
// reader decodes into an arena its tmk.Store lends (host.NewNet), which
// the store rewinds when the run is over, so a steady stream of runs
// decodes into the blocks the previous run grew. A reader lent none
// (NewFrameReader, ParseFrame) makes its own and never rewinds it: its
// frames own their storage for as long as anything holds them, and the
// arena keeps every block it carved for as long as the reader lives. An Arena
// has one writer at a time, the goroutine decoding into it; its zero
// value is empty and ready.
type Arena struct {
	i32 slab.Slab[int32]
	f64 slab.Slab[float64]
	ref slab.Slab[PageRef]
	run slab.Slab[Run]
	df  slab.Slab[Diff]
	iv  slab.Slab[OwnedInterval]
	row slab.Slab[[]int32]
	// The payloads a rank decodes most, carved whole (one), so a frame's
	// payload is a pointer into the arena.
	dreq  slab.Slab[DiffRequest]
	drep  slab.Slab[DiffReply]
	grant slab.Slab[Grant]
	dep   slab.Slab[Depart]
	// own marks an arena its reader made, which is never rewound.
	own bool
}

// Rewind makes every block free for the next run's frames. The slabs
// whose values hold pointers are cleared first, so a rewound arena keeps
// nothing a previous frame pointed at alive, and their next carves start
// zeroed, as a make would (the decoder leaves an empty list nil). The
// word slabs are not cleared: the decoder writes every word it carves.
// The caller must hold no frame decoded into the arena.
func (a *Arena) Rewind() {
	a.i32.Rewind(false)
	a.f64.Rewind(false)
	a.ref.Rewind(false)
	a.run.Rewind(true)
	a.df.Rewind(true)
	a.iv.Rewind(true)
	a.row.Rewind(true)
	a.dreq.Rewind(true)
	a.drep.Rewind(true)
	a.grant.Rewind(true)
	a.dep.Rewind(true)
}

// one returns the value a whole payload is decoded into: carved from s
// when the arena is lent, made on the heap when it is a reader's own, where
// a block would be kept for the few payloads that reader ever decodes.
func one[T any](ar *Arena, s *slab.Slab[T]) *T {
	if ar.own {
		return new(T)
	}
	return &s.Take(1)[0]
}

// carve takes n elements from s, or makes them when the type has no slab
// (a nil s: the rare or large lists).
func carve[T any](s *slab.Slab[T], n int) []T {
	if s == nil {
		return make([]T, n)
	}
	return s.Take(n)
}

// fail latches the first error and drops the rest of the input, so every
// later read fails too (and every later count reads zero).
func (c *coder) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.b = nil
}

// take consumes the next n input bytes, or latches ErrTruncated.
func (c *coder) take(n int) []byte {
	if n < 0 || n > len(c.b) {
		c.fail(ErrTruncated)
		return nil
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

// reserve extends the output by n bytes in one step and returns them for
// the caller to store into: word lists (page images, diff runs, vector
// times) are sized once instead of grown an append at a time.
func (c *coder) reserve(n int) []byte {
	at := len(c.b)
	c.b = slices.Grow(c.b, n)[:at+n]
	return c.b[at:]
}

func (c *coder) u8(v *byte) {
	if !c.dec {
		c.b = append(c.b, *v)
	} else if b := c.take(1); b != nil {
		*v = b[0]
	}
}

// tag writes a constant byte (the format version, a page-set mode); the
// decoding direction reads it into the returned value.
func (c *coder) tag(k byte) byte {
	c.u8(&k)
	return k
}

// kind writes a payload's kind byte ahead of its walker.
func (c *coder) kind(k byte) *coder {
	c.u8(&k)
	return c
}

func (c *coder) bool(v *bool) {
	if b := c.tag(b2u(*v)); c.dec {
		*v = b != 0
	}
}

func (c *coder) i32(v *int32) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint32(c.b, uint32(*v))
	} else if b := c.take(4); b != nil {
		*v = int32(binary.LittleEndian.Uint32(b))
	}
}

func (c *coder) i64(v *int64) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint64(c.b, uint64(*v))
	} else if b := c.take(8); b != nil {
		*v = int64(binary.LittleEndian.Uint64(b))
	}
}

func (c *coder) f64(v *float64) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*v))
	} else if b := c.take(8); b != nil {
		*v = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
}

// count walks an element count: encoding writes n and returns it,
// decoding reads it. A decoded count is bounded by the bytes remaining,
// given each element occupies at least min bytes, so corrupt counts
// cannot force huge allocations. The bound is computed by division:
// multiplying the attacker-controlled count would overflow and defeat the
// guard.
func (c *coder) count(n, min int) int {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, uint64(n))
		return n
	}
	v, w := binary.Uvarint(c.b)
	if w <= 0 {
		c.fail(ErrTruncated)
		return 0
	}
	c.b = c.b[w:]
	if v > uint64(len(c.b))/uint64(min) {
		c.fail(fmt.Errorf("wire: count %d exceeds remaining input", v))
		return 0
	}
	return int(v)
}

// list opens a counted list of composite elements, each at least min
// bytes on the wire, and returns the elements for the caller to walk in
// place. Decoding sizes *vs first, from the type's arena slab (nil if it
// has none), and leaves it nil for an empty list.
func list[T any](c *coder, vs *[]T, min int, s *slab.Slab[T]) []T {
	if n := c.count(len(*vs), min); c.dec && n > 0 {
		*vs = carve(s, n)
	}
	return *vs
}

// i32s and f64s are the bulk word lists: one count, then the words copied
// in a single sized step in either direction. f64s encodes four words per
// iteration: page images and diff runs are most of a record's bytes.
func (c *coder) i32s(vs *[]int32) {
	n := c.count(len(*vs), 4)
	if !c.dec {
		dst := c.reserve(4 * n)
		for i, v := range *vs {
			binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
		}
	} else if src := c.take(4 * n); n > 0 && src != nil {
		*vs = carve(&c.ar.i32, n)
		for i := range *vs {
			(*vs)[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
		}
	}
}

func (c *coder) f64s(vs *[]float64) {
	n := c.count(len(*vs), 8)
	if !c.dec {
		dst, src, i := c.reserve(8*n), *vs, 0
		for ; i+4 <= n; i += 4 {
			d, w := dst[8*i:8*i+32:8*i+32], src[i:i+4:i+4]
			binary.LittleEndian.PutUint64(d, math.Float64bits(w[0]))
			binary.LittleEndian.PutUint64(d[8:], math.Float64bits(w[1]))
			binary.LittleEndian.PutUint64(d[16:], math.Float64bits(w[2]))
			binary.LittleEndian.PutUint64(d[24:], math.Float64bits(w[3]))
		}
		for ; i < n; i++ {
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(src[i]))
		}
	} else if src := c.take(8 * n); n > 0 && src != nil {
		*vs = carve(&c.ar.f64, n)
		for i := range *vs {
			(*vs)[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
	}
}

// pageSet walks a sorted page list in raw-or-span form: a one-byte mode —
// 0 for the raw i32 list, 1 for run-length spans (a count of runs, then
// (lo, hi) half-open i32 pairs). The encoder chooses per list by the same
// size heuristic FetchedBytes prices with, so sparse sets stay one word
// per page and dense sets collapse to two words per run; the run count
// pass is allocation-free, and mode 1 is only chosen for strictly
// ascending run structure, which sorted deduplicated input (the protocol
// invariant) always has. The decoder accepts either mode for any list.
func (c *coder) pageSet(vs *[]int32) {
	runs := countRuns(*vs)
	switch mode := c.tag(b2u(2*runs < len(*vs))); {
	case mode == 0:
		c.i32s(vs)
	case mode > 1:
		c.fail(fmt.Errorf("wire: unknown page-set mode %d", mode))
	case c.dec:
		c.expandSpans(vs)
	default:
		c.count(runs, 8)
		for i, pages := 0, *vs; i < len(pages); {
			j := i + 1
			for j < len(pages) && pages[j] == pages[j-1]+1 {
				j++
			}
			lo, hi := pages[i], pages[i]+int32(j-i)
			c.i32(&lo)
			c.i32(&hi)
			i = j
		}
	}
}

// expandSpans decodes pageSet's mode-1 body. Spans are validated
// (hi > lo) and their total expansion is bounded before any allocation,
// so a corrupt span list cannot force a huge decoded slice; expansion
// lands in the arena like every other i32 field.
func (c *coder) expandSpans(vs *[]int32) {
	n := c.count(0, 8)
	spans := c.take(8 * n)
	if n == 0 || spans == nil {
		return
	}
	total := 0
	for i := 0; i < n; i++ {
		lo := int32(binary.LittleEndian.Uint32(spans[8*i:]))
		hi := int32(binary.LittleEndian.Uint32(spans[8*i+4:]))
		if hi <= lo {
			c.fail(fmt.Errorf("wire: page span [%d, %d) is empty or inverted", lo, hi))
			return
		}
		total += int(hi - lo)
		if total > MaxFrame/4 {
			c.fail(fmt.Errorf("wire: page spans expand to %d pages", total))
			return
		}
	}
	out := carve(&c.ar.i32, total)[:0]
	for i := 0; i < n; i++ {
		lo := int32(binary.LittleEndian.Uint32(spans[8*i:]))
		hi := int32(binary.LittleEndian.Uint32(spans[8*i+4:]))
		for p := lo; p < hi; p++ {
			out = append(out, p)
		}
	}
	*vs = out
}

func (c *coder) rows(vs *[][]int32) {
	rows := list(c, vs, 1, &c.ar.row)
	for i := range rows {
		c.i32s(&rows[i])
	}
}

func (c *coder) str(s *string) {
	n := c.count(len(*s), 1)
	if !c.dec {
		c.b = append(c.b, *s...)
	} else if n > 0 {
		*s = string(c.take(n))
	}
}

func (c *coder) bytes(b *[]byte) {
	n := c.count(len(*b), 1)
	if !c.dec {
		c.b = append(c.b, *b...)
	} else if n > 0 {
		*b = append([]byte(nil), c.take(n)...)
	}
}

func b2u(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// ---- payload walkers ----

// payload walks a frame's payload: the kind byte, then the kind's walker.
// The two switches below are the only place a payload type and its kind
// meet; a kind's field order lives in its walker alone. Every struct
// payload crosses as a pointer (see Frame.Payload), but for the one value
// case marked below.
func (c *coder) payload(p *any) {
	if c.dec {
		*p = c.decoded(c.tag(pNil))
		return
	}
	switch v := (*p).(type) {
	case nil:
		c.kind(pNil)
	case []float64:
		c.kind(pFloat64s).f64s(&v)
	case *DiffRequest:
		c.kind(pDiffRequest).diffRequest(v)
	case *DiffReply:
		c.kind(pDiffReply).diffReply(v)
	case DiffReply: // bench/probes.go encodes its diff-reply frame by value
		c.kind(pDiffReply).diffReply(&v)
	case *Grant:
		c.kind(pGrant).grant(v)
	case *Depart:
		c.kind(pDepart).depart(v)
	case *Push:
		c.kind(pPush).push(v)
	case *Start:
		c.kind(pStart).start(v)
	case *Done:
		c.kind(pDone).done(v)
	case *Update:
		c.kind(pUpdate).update(v)
	case *Checkpoint:
		c.kind(pCheckpoint).checkpoint(v)
	case *JobSpec:
		c.kind(pJobSpec).jobSpec(v)
	case *JobDecision:
		c.kind(pJobDecision).jobDecision(v)
	case *JobResult:
		c.kind(pJobResult).jobResult(v)
	default:
		c.fail(fmt.Errorf("wire: unencodable payload type %T", v))
	}
}

// decoded builds the payload of kind k from the input: a struct kind into
// a value of its own, carved whole from a lent arena for the kinds a rank
// decodes on every synchronisation, made on the heap for the rest.
func (c *coder) decoded(k byte) any {
	switch k {
	case pNil:
		return nil
	case pFloat64s:
		var v []float64
		c.f64s(&v)
		return v
	case pDiffRequest:
		return carved(c, one(c.ar, &c.ar.dreq), (*coder).diffRequest)
	case pDiffReply:
		return carved(c, one(c.ar, &c.ar.drep), (*coder).diffReply)
	case pGrant:
		return carved(c, one(c.ar, &c.ar.grant), (*coder).grant)
	case pDepart:
		return carved(c, one(c.ar, &c.ar.dep), (*coder).depart)
	case pPush:
		return carved(c, new(Push), (*coder).push)
	case pStart:
		return carved(c, new(Start), (*coder).start)
	case pDone:
		return carved(c, new(Done), (*coder).done)
	case pUpdate:
		return carved(c, new(Update), (*coder).update)
	case pCheckpoint:
		return carved(c, new(Checkpoint), (*coder).checkpoint)
	case pJobSpec:
		return carved(c, new(JobSpec), (*coder).jobSpec)
	case pJobDecision:
		return carved(c, new(JobDecision), (*coder).jobDecision)
	case pJobResult:
		return carved(c, new(JobResult), (*coder).jobResult)
	default:
		c.fail(fmt.Errorf("wire: unknown payload kind %d", k))
		return nil
	}
}

// carved decodes one T with its walker into v and returns v. (Inlined at
// each case above, the walker is a static call and c stays on ParseFrame's
// stack.)
func carved[T any](c *coder, v *T, walk func(*coder, *T)) any {
	walk(c, v)
	return v
}

func (c *coder) diffRequest(v *DiffRequest) {
	c.i32(&v.Req)
	c.i32s(&v.Pages)
	c.rows(&v.Applied)
	c.bool(&v.Direct)
}

func (c *coder) diffReply(v *DiffReply) {
	c.diffs(&v.Diffs)
	c.pageOwners(&v.Redirects)
}

func (c *coder) grant(v *Grant) {
	c.intervals(&v.Intervals)
	c.diffs(&v.Served)
	c.spans(&v.Pushed)
	c.i32(&v.Bytes)
}

func (c *coder) depart(v *Depart) {
	c.i64(&v.Time)
	c.intervals(&v.Intervals)
	c.diffs(&v.Served)
	c.nodePages(&v.Fetched)
}

func (c *coder) push(v *Push) {
	c.i32(&v.Ivl)
	chunks := list(c, &v.Chunks, 5, nil)
	for i := range chunks {
		ch := &chunks[i]
		c.i32(&ch.Lo)
		c.f64s(&ch.Vals)
	}
}

func (c *coder) start(v *Start) {
	c.str(&v.App)
	c.str(&v.Set)
	c.i32(&v.N)
	c.i64(&v.Overhead)
	c.bool(&v.Verify)
}

func (c *coder) done(v *Done) {
	c.f64(&v.Checksum)
	c.str(&v.Err)
}

func (c *coder) update(v *Update) {
	c.i32(&v.Epoch)
	c.spans(&v.Spans)
}

func (c *coder) checkpoint(v *Checkpoint) {
	c.i32(&v.Node)
	c.i32(&v.Epoch)
	c.bool(&v.Full)
	c.i32s(&v.VC)
	c.i32s(&v.LastBar)
	c.intervals(&v.Intervals)
	frames := list(c, &v.Frames, 12, nil)
	for i := range frames {
		fr := &frames[i]
		c.i32(&fr.Page)
		c.u8(&fr.Prot)
		c.bool(&fr.Dirty)
		c.i32(&fr.LastDiffed)
		c.i32s(&fr.Applied)
		c.f64s(&fr.Words)
		c.f64s(&fr.Twin)
	}
	c.diffs(&v.Diffs)
	c.pageSet(&v.Fetched)
	c.bytes(&v.Adapt)
}

func (c *coder) jobSpec(v *JobSpec) {
	c.i64(&v.ID)
	c.str(&v.App)
	c.str(&v.Set)
	c.str(&v.System)
	c.str(&v.Backend)
	c.i32(&v.Procs)
	c.bool(&v.Adapt)
	c.bool(&v.Scale)
	c.bool(&v.Verify)
}

func (c *coder) jobDecision(v *JobDecision) {
	c.i64(&v.ID)
	c.str(&v.Reason)
}

func (c *coder) jobResult(v *JobResult) {
	c.i64(&v.ID)
	c.f64(&v.Checksum)
	c.i64(&v.VirtualNS)
	c.i64(&v.WallNS)
	c.i64(&v.Msgs)
	c.i64(&v.Bytes)
	c.i64(&v.Segv)
	c.i64(&v.DiffFetches)
	c.i64(&v.Barriers)
	c.i64(&v.LockAcquires)
	c.str(&v.Err)
}

// ---- nested types ----

func (c *coder) runs(vs *[]Run) {
	runs := list(c, vs, 5, &c.ar.run)
	for i := range runs {
		r := &runs[i]
		c.i32(&r.Off)
		c.f64s(&r.Vals)
	}
}

func (c *coder) diffs(vs *[]Diff) {
	diffs := list(c, vs, 18, &c.ar.df)
	for i := range diffs {
		d := &diffs[i]
		c.i32(&d.Page)
		c.i32(&d.Creator)
		c.i32(&d.From)
		c.i32(&d.To)
		c.bool(&d.Whole)
		c.i32s(&d.Covers)
		c.runs(&d.Runs)
	}
}

func (c *coder) spans(vs *[]DiffSpan) {
	spans := list(c, vs, 19, nil)
	for i := range spans {
		s := &spans[i]
		c.i32(&s.Page)
		c.i32(&s.Creator)
		c.i32(&s.From)
		c.i32(&s.To)
		c.bool(&s.Whole)
		c.i32s(&s.Covers)
		pages := list(c, &s.Pages, 1, nil)
		for j := range pages {
			c.runs(&pages[j])
		}
	}
}

func (c *coder) intervals(vs *[]OwnedInterval) {
	ivs := list(c, vs, 9, &c.ar.iv)
	for i := range ivs {
		oi := &ivs[i]
		c.i32(&oi.Owner)
		c.i32(&oi.Idx)
		refs := list(c, &oi.IV.Pages, 13, &c.ar.ref)
		if !c.dec {
			// The page refs in one reserved step, each laid out as the
			// decoding walk below reads it.
			dst := c.reserve(13 * len(refs))
			for j, pr := range refs {
				d := dst[13*j : 13*j+13 : 13*j+13]
				binary.LittleEndian.PutUint32(d, uint32(pr.Page))
				d[4] = b2u(pr.Whole)
				binary.LittleEndian.PutUint32(d[5:], uint32(pr.ExtLo))
				binary.LittleEndian.PutUint32(d[9:], uint32(pr.ExtHi))
			}
			continue
		}
		for j := range refs {
			pr := &refs[j]
			c.i32(&pr.Page)
			c.bool(&pr.Whole)
			c.i32(&pr.ExtLo)
			c.i32(&pr.ExtHi)
		}
	}
}

func (c *coder) nodePages(vs *[]NodePages) {
	nodes := list(c, vs, 5, nil)
	for i := range nodes {
		n := &nodes[i]
		c.i32(&n.Node)
		c.pageSet(&n.Pages)
	}
}

func (c *coder) pageOwners(vs *[]PageOwner) {
	owners := list(c, vs, 8, nil)
	for i := range owners {
		o := &owners[i]
		c.i32(&o.Page)
		c.i32(&o.Owner)
	}
}

// ---- framing ----

// frame walks one frame body: version, envelope, payload.
func (c *coder) frame(f *Frame) {
	if v := c.tag(Version); v != Version {
		c.fail(fmt.Errorf("wire: version %d, want %d", v, Version))
	}
	c.u8(&f.Kind)
	c.i32(&f.From)
	c.i32(&f.To)
	c.i32(&f.Tag)
	c.i32(&f.Bytes)
	c.i64(&f.Time)
	c.payload(&f.Payload)
}

// AppendFrame encodes f (length prefix included) onto dst and returns the
// extended slice. It fails only on an unencodable payload type or an
// oversized frame.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	c := coder{b: dst, ar: &encoding}
	c.reserve(4) // length prefix, patched below
	c.frame(f)
	if c.err != nil {
		return dst, c.err
	}
	body := len(c.b) - len(dst) - 4
	if body > MaxFrame {
		return dst, fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame", body)
	}
	binary.LittleEndian.PutUint32(c.b[len(dst):], uint32(body))
	return c.b, nil
}

// ParseFrame decodes one frame from b, returning the frame and the number
// of bytes consumed. The frame is carved from an arena of its own, so it
// owns its storage for as long as anything holds it.
func ParseFrame(b []byte) (*Frame, int, error) {
	f := new(Frame)
	var c coder
	n, err := c.parseFrame(f, b)
	if err != nil {
		return nil, 0, err
	}
	return f, n, nil
}

// parseFrame decodes one frame from b into *f, drawing slice storage from
// c's arena, which it makes if c has none. The decoded frame owns its
// storage until the arena is rewound (a carve is never handed out twice
// before that), so c may be reused across frames and f may be reused
// once its previous contents are dead.
func (c *coder) parseFrame(f *Frame, b []byte) (int, error) {
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
	c.b, c.dec, c.err = b[4:4+body], true, nil
	if c.ar == nil {
		c.ar = &Arena{own: true}
	}
	*f = Frame{}
	c.frame(f)
	if c.err != nil {
		return 0, c.err
	}
	if len(c.b) != 0 {
		return 0, fmt.Errorf("wire: %d trailing bytes in frame", len(c.b))
	}
	switch f.Kind {
	case FHello, FMsg, FHand, FReq, FReply, FStart, FDone, FCkpt,
		FJob, FJobAccept, FJobReject, FJobResult, FPoolHello:
	default:
		return 0, fmt.Errorf("wire: unknown frame kind %d", f.Kind)
	}
	return 4 + int(body), nil
}

// ReadRawFrame reads exactly one length-prefixed frame from r without
// decoding it, returning the full encoded bytes (length prefix included)
// in fresh storage. It reads no byte past the frame, so a stream's later
// frames are left for whoever reads it next (a handshake hands the
// connection on to a FrameReader): a reader that starts with no buffer
// grows one to exactly what each step needs — the length, then the
// frame — and never asks the stream for more.
func ReadRawFrame(r io.Reader) ([]byte, error) {
	fr := FrameReader{r: r}
	return fr.next()
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
