// Package adapt is the run-time access-pattern detector behind the DSM's
// adaptive update protocol.
//
// The paper's compiler replaces invalidate-and-fault traffic with
// aggregated pushes wherever regular-section analysis can prove who will
// read what. When the compiler cannot summarize an access — irregular
// indexing, data-dependent neighbors — the system falls back to the plain
// invalidate protocol and loses the entire benefit. This package recovers
// it at run time, in the spirit of Munin's multi-protocol runtime: the
// run-time observes, per barrier epoch, which node writes each page and
// which nodes demand-fetch it, infers stable producer→consumer relations,
// and — once a pattern has held for K production cycles — switches those
// pages from invalidate to update. The protocol layer (package tmk) then
// piggybacks the producer's diffs to the bound consumers at barrier
// departure instead of leaving them to fault, and decays straight back to
// invalidate when the pattern breaks.
//
// The binding unit is a section, not a page: bound pages with the same
// producer and consumer set cluster into maximal contiguous spans
// (Sections, rsd.Coalesce), the producer ships one run-length-encoded
// diff span per (consumer, section), and hysteresis acts section-shaped —
// a page whose pattern matches an adjacent bound page joins its section
// without re-serving the full K-cycle warm-up, and a pattern break on one
// page splits or shrinks the section it sits in instead of decaying the
// neighbors (the decay asymmetry: whole sections never fall as a unit,
// they erode page by page, while every page's own promotion remains
// individually hysteresis-guarded).
//
// Two-writer pages get a second chance the page-granular protocol cannot
// offer: when exactly two nodes write disjoint extents of one page, cycle
// after cycle — spatial false sharing, a block boundary landing mid-page —
// the detector learns a sub-page split binding at the observed
// write-extent watershed. Each writer then pushes only its own diffs
// (which cover exactly its half) to the consumers on the far side, every
// pending notice is satisfied by the paired pushes, and the page leaves
// the invalidate fault loop that whole-page adaptation structurally
// cannot win (the paper's false-sharing case; see DESIGN.md §8).
//
// The detector is deterministic and runs replicated: every node feeds the
// same globally-relayed observations (write notices with write extents
// already travel with barriers; fetch observations ride the
// Arrival.Fetched / Depart.Fetched wire fields) through the same
// transition function — iterating pages in sorted order, so even the
// section-join rule, which reads neighbor state mid-transition, is a pure
// function of the observation stream — and all nodes agree on the
// bindings without any extra coordination, the same idiom the barrier's
// Validate_w_sync responder assignment uses.
//
// A pattern is tracked per page as a production cycle: a cycle starts when
// the page's producer (or, for split tracking, its writer pair) publishes
// a write and ends at the next write, with every demand fetch observed in
// between attributed to the cycle. This makes the detector phase-tolerant:
// the common "write phase, then read phase" shape of barrier programs
// (Jacobi's copy/stencil, an irregular stencil's update/relax) alternates
// writers and readers across epochs, and per-epoch matching would never
// see them together.
package adapt

import (
	"fmt"
	"slices"
	"strings"

	"sdsm/internal/rsd"
)

// DefaultK is the default number of consecutive stable production cycles
// before a page switches to update mode. Two cycles is the minimum that
// distinguishes a repeating pattern from a one-shot handoff; the first
// cycle of any run is further skewed by cold-start faults.
const DefaultK = 3

// Config tunes the detectors (the barrier-epoch Detector and the
// per-lock LockDetector share it).
type Config struct {
	// K is the hysteresis: a page switches to update mode after its
	// producer→consumer pattern has held for K consecutive production
	// cycles (0 means DefaultK). The lock detector uses the same K for
	// its edge hysteresis.
	K int
	// ReprobeM bounds binding staleness for lock-scope bindings: after M
	// consecutive piggybacked grants on one edge, one grant withholds the
	// piggyback ("re-probe") so an acquirer that stopped reading the
	// pages is detected within M wasted piggybacks (0 means
	// DefaultReprobeM).
	ReprobeM int
}

func (c Config) k() int {
	if c.K <= 0 {
		return DefaultK
	}
	return c.K
}

// WriteExt is one writer's observation for one page in one epoch: the
// writing node and the union of its declared write extents within the
// page, as a [Lo, Hi) word range. Hi == 0 means the extent is unknown
// (the page was republished without a fresh write region) and the whole
// page must be assumed.
type WriteExt struct {
	Node   int
	Lo, Hi int
}

// known reports whether the extent is usable for sub-page reasoning.
func (w WriteExt) known() bool { return w.Hi > 0 }

// Epoch is the globally shared observation for one barrier epoch: for each
// page, the nodes that closed write intervals covering it (with their
// write extents), and the nodes that demand-fetched remote data for it.
// Writers come from the write notices every node learns at the barrier;
// Readers from the relayed arrival fetch lists. Pages are >= 0 and a page
// in Writers has at least one writer (an unwritten page has no entry);
// Advance panics on an Epoch that breaks either.
type Epoch struct {
	Writers map[int][]WriteExt
	Readers map[int][]int
}

// PageObs is one page's share of an epoch's observation: its writers in
// ascending node order, one entry per node, and its readers in any order.
// An epoch is a []PageObs in strictly ascending page order, pages >= 0 —
// the form the protocol layer builds in reused storage and AdvancePages
// consumes; the detector keeps no reference to it. No writers means the
// page was not written this epoch.
type PageObs struct {
	Page    int
	Writers []WriteExt
	Readers []int
}

// Mode is a page's current protocol.
type Mode uint8

const (
	// Invalidate is the base protocol: write notices invalidate the page
	// and consumers fault and fetch.
	Invalidate Mode = iota
	// Update is the adaptive protocol: the producer pushes its diffs to
	// the bound consumers at barrier departure.
	Update
	// Split is the sub-page adaptive protocol for falsely shared pages:
	// two writers own disjoint halves at a stable watershed, and each
	// pushes its own diffs to the bound consumers on the far side.
	Split
)

// pattern is the per-page detector state. Single-producer and writer-pair
// hysteresis are mutually exclusive: a single-writer cycle resets the
// pair tracking and vice versa, so at most one promotion path is armed.
type pattern struct {
	seen      bool  // the page has been observed (absent pages are all-zero)
	producer  int   // last single writer; -1 before any write
	consumers []int // sorted consumer set of the last completed cycle
	cur       []int // sorted readers of the cycle in flight, emptied in place
	streak    int   // consecutive cycles with a stable producer+consumer set
	mode      Mode
	bound     []int // sorted consumer set pushed to while bound

	// Writer-pair (sub-page split) hysteresis.
	pairLo, pairHi int   // the two writers, ordered by extent position; -1 unset
	cut            int   // watershed: pairLo writes [0,cut), pairHi [cut,PageWords)
	pairCons       []int // sorted consumer set of the last completed pair cycle
	pairStreak     int   // consecutive pair cycles with stable pair+consumers
}

// clearPair resets the writer-pair hysteresis.
func (p *pattern) clearPair() {
	p.pairLo, p.pairHi = -1, -1
	p.cut = 0
	p.pairCons = p.pairCons[:0]
	p.pairStreak = 0
}

// clearSingle resets the single-producer hysteresis.
func (p *pattern) clearSingle() {
	p.producer = -1
	p.consumers = p.consumers[:0]
	p.streak = 0
}

// Stats counts detector transitions.
type Stats struct {
	Promotions   int64 // pages switched invalidate → update (whole page)
	Splits       int64 // pages switched to sub-page split bindings
	SectionJoins int64 // of Promotions: pages that joined an adjacent bound section early
	Decays       int64 // bound pages switched back to invalidate
}

// TransKind identifies one detector transition in the per-epoch log.
type TransKind uint8

const (
	// TransPromote: invalidate → update after the full K-cycle warm-up.
	TransPromote TransKind = iota
	// TransSplit: invalidate → sub-page split binding.
	TransSplit
	// TransJoin: invalidate → update by joining an adjacent bound section.
	TransJoin
	// TransDecay: any binding → invalidate.
	TransDecay
)

// Transition is one entry of the per-epoch transition log.
type Transition struct {
	Page int
	Kind TransKind
}

// Detector is the replicated pattern detector for one DSM machine. All
// nodes construct it with the same Config and feed it the same Epochs, so
// its bindings are identical everywhere.
type Detector struct {
	cfg   Config
	pages []pattern // indexed by page, grown on demand; unobserved pages are !seen
	Stats Stats

	// LogTrans enables the per-epoch transition log (observability only —
	// off by default so an untraced run performs no extra work). When set,
	// Trans holds the transitions of the most recent Advance, in the
	// deterministic page-visit order.
	LogTrans bool
	Trans    []Transition
}

// New creates a detector.
func New(cfg Config) *Detector {
	return &Detector{cfg: cfg}
}

// Advance feeds one epoch's observation, given as maps, through the
// detector: it sorts the maps into the page-ascending form and hands that
// to AdvancePages, the one implementation.
func (d *Detector) Advance(ep Epoch) {
	obs := make([]PageObs, 0, len(ep.Writers)+len(ep.Readers))
	for pg, ws := range ep.Writers {
		if pg < 0 || len(ws) == 0 {
			panic(fmt.Sprintf("adapt: Advance: page %d listed with %d writers", pg, len(ws)))
		}
		obs = append(obs, PageObs{Page: pg, Writers: ws, Readers: ep.Readers[pg]})
	}
	for pg, rs := range ep.Readers {
		if _, written := ep.Writers[pg]; !written {
			obs = append(obs, PageObs{Page: pg, Readers: rs})
		}
	}
	slices.SortFunc(obs, func(a, b PageObs) int { return a.Page - b.Page })
	d.AdvancePages(obs)
}

// AdvancePages feeds one epoch's observation through the detector. Within
// a page, reads are attributed before writes: a fetch observed in the same
// epoch as the next write belongs to the cycle that write closes (the
// fetch happened while the previous production was current). Pages are
// visited in ascending order — required for replica determinism, because
// the section-join rule reads neighbor pages' mode, producer and binding
// mid-transition (never their in-flight readers, which is why a page's
// reads need not precede its neighbors' writes).
func (d *Detector) AdvancePages(obs []PageObs) {
	d.Trans = d.Trans[:0]
	if n := len(obs); n > 0 {
		d.grow(obs[n-1].Page)
	}
	for _, o := range obs {
		p := d.page(o.Page)
		for _, r := range o.Readers {
			if i, found := slices.BinarySearch(p.cur, r); !found {
				p.cur = slices.Insert(p.cur, i, r)
			}
		}
		switch writers := o.Writers; {
		case len(writers) == 0:
		case len(writers) == 1:
			d.single(o.Page, p, writers[0])
		case len(writers) == 2 && disjoint(writers[0], writers[1]):
			d.pair(o.Page, p, writers)
		default:
			// Three or more writers, or two with overlapping or unknown
			// extents: a genuine conflict no binding shape can serve.
			d.reset(o.Page, p)
		}
	}
}

// single advances a page on a one-writer epoch.
func (d *Detector) single(pg int, p *pattern, w WriteExt) {
	if p.mode == Split {
		if w.Node == p.pairLo || w.Node == p.pairHi {
			// One side of the pair produced alone this epoch: the binding
			// holds (the idle side simply has nothing to push). Reads that
			// appear are consumers the pushes missed — extend the binding.
			d.extend(p)
			return
		}
		d.reset(pg, p) // an outside writer took the page
		p.producer = w.Node
		return
	}
	if p.pairLo >= 0 {
		// Pair hysteresis in progress, but this cycle had a single writer:
		// the pair pattern broke before promoting. Its in-flight reads were
		// observed under that broken pattern and must not seed the single-
		// producer streak — the mirror of pair()'s transition discard.
		p.cur = p.cur[:0]
		p.clearPair()
	}
	if p.producer >= 0 && w.Node != p.producer {
		// The producer changed hands: the pattern is broken. Restart
		// tracking from this epoch's writer, discarding the in-flight
		// cycle's reads.
		d.reset(pg, p)
		p.producer = w.Node
		return
	}
	p.producer = w.Node
	// A write with reads gathered since the previous write closes a
	// production cycle with those reads as its consumers. A write with
	// none merely extends the current production — the protocol layer
	// closes write intervals for bookkeeping reasons too (a lazy diff
	// flush while serving splits an interval), and a producer may write
	// across several epochs before anyone reads.
	if p.mode == Update {
		// Pushed pages no longer fault, so an empty cycle means the
		// pushes kept the consumers satisfied. Any reads that do appear
		// are consumers the pushes missed — extend the binding.
		d.extend(p)
		return
	}
	cycle := p.takeCycle()
	if len(cycle) == 0 {
		return
	}
	if !slices.Equal(cycle, p.consumers) {
		p.consumers = append(p.consumers[:0], cycle...)
		p.streak = 1
	} else {
		p.streak++
	}
	if p.streak >= d.cfg.k() {
		p.mode = Update
		p.bound = append([]int(nil), p.consumers...)
		d.Stats.Promotions++
		d.logTrans(pg, TransPromote)
		return
	}
	// Section join: the page's pattern matches an adjacent page that is
	// already whole-page bound to the same producer and consumers, so it
	// extends that section now instead of re-serving the full K-cycle
	// warm-up — the section-granular analogue of rsd's bounding-box union.
	// (Pages are visited in ascending order, so the neighbor states read
	// here are identical at every replica.)
	for _, nb := range [2]int{pg - 1, pg + 1} {
		if nb < 0 || nb >= len(d.pages) {
			continue
		}
		if q := &d.pages[nb]; q.mode == Update && q.producer == p.producer && slices.Equal(q.bound, cycle) {
			p.mode = Update
			p.bound = append([]int(nil), cycle...)
			d.Stats.Promotions++
			d.Stats.SectionJoins++
			d.logTrans(pg, TransJoin)
			return
		}
	}
}

// pair advances a page on a two-writer epoch with disjoint extents — the
// spatial false-sharing shape. writers arrive sorted by node; ordering by
// extent decides which owns the low half.
func (d *Detector) pair(pg int, p *pattern, writers []WriteExt) {
	lo, hi := writers[0], writers[1]
	if hi.Lo < lo.Lo {
		lo, hi = hi, lo
	}
	// samePair: the established pair reproduced within its halves (the
	// watershed still separates the extents) — the one stability predicate
	// both the bound hold-check and the pre-promotion hysteresis use.
	samePair := lo.Node == p.pairLo && hi.Node == p.pairHi && lo.Hi <= p.cut && p.cut <= hi.Lo
	if p.mode == Update {
		// A second writer broke a whole-page binding. Decay it, then give
		// the pair shape its chance below.
		d.Stats.Decays++
		d.logTrans(pg, TransDecay)
		p.mode = Invalidate
		p.bound = nil
	}
	if p.mode == Split {
		if samePair {
			// The pair reproduced within its halves: the binding holds.
			d.extend(p)
			return
		}
		d.reset(pg, p) // different pair, or the watershed moved across a write
	}
	if p.producer >= 0 {
		// A single-producer pattern was in progress: its in-flight reads
		// were observed under that broken pattern and must not seed the
		// pair hysteresis — the same discard single() performs on a
		// producer change, keeping the K-cycle guard symmetric.
		p.cur = p.cur[:0]
	}
	p.clearSingle()
	cycle := p.takeCycle()
	if !samePair {
		p.pairLo, p.pairHi = lo.Node, hi.Node
		p.cut = (lo.Hi + hi.Lo + 1) / 2
		p.pairCons = p.pairCons[:0]
		p.pairStreak = 0
	}
	if len(cycle) == 0 {
		return // production extension, as in the single-writer path
	}
	if !slices.Equal(cycle, p.pairCons) {
		p.pairCons = append(p.pairCons[:0], cycle...)
		p.pairStreak = 1
	} else {
		p.pairStreak++
	}
	if p.pairStreak >= d.cfg.k() {
		p.mode = Split
		p.bound = append([]int(nil), p.pairCons...)
		d.Stats.Splits++
		d.logTrans(pg, TransSplit)
	}
}

// extend folds the in-flight reads of a bound page into its binding
// (consumers the pushes missed fault once and join).
func (d *Detector) extend(p *pattern) {
	p.bound = union(p.bound, p.takeCycle())
}

// takeCycle closes the production cycle in flight: it returns the sorted
// readers gathered since the last one closed and empties the set in place.
// The result shares cur's storage — valid until the page's next observed
// read, so callers that keep it copy it.
func (p *pattern) takeCycle() []int {
	cycle := p.cur
	p.cur = p.cur[:0]
	return cycle
}

// logTrans appends to the per-epoch transition log when it is enabled.
func (d *Detector) logTrans(pg int, k TransKind) {
	if d.LogTrans {
		d.Trans = append(d.Trans, Transition{Page: pg, Kind: k})
	}
}

// reset decays any binding and restarts all hysteresis for a page.
func (d *Detector) reset(pg int, p *pattern) {
	if p.mode != Invalidate {
		d.Stats.Decays++
		d.logTrans(pg, TransDecay)
	}
	p.mode = Invalidate
	p.bound = nil
	p.clearSingle()
	p.clearPair()
	p.cur = p.cur[:0]
}

// Push reports whether page is whole-page bound to the update protocol,
// and if so to which consumers (sorted; never including the producer).
// The caller pushes only when it is the producer and actually wrote the
// page this epoch.
func (d *Detector) Push(page int) (producer int, consumers []int, ok bool) {
	if page >= len(d.pages) || d.pages[page].mode != Update {
		return 0, nil, false
	}
	p := &d.pages[page]
	return p.producer, p.bound, true
}

// Split reports whether page carries a sub-page split binding, and if so
// the writer pair (low half first), the watershed word offset, and the
// bound consumers. Each pair member pushes its own diffs — which cover
// exactly its half — to every bound consumer but itself.
func (d *Detector) Split(page int) (pair [2]int, cut int, consumers []int, ok bool) {
	if page >= len(d.pages) || d.pages[page].mode != Split {
		return [2]int{}, 0, nil, false
	}
	p := &d.pages[page]
	return [2]int{p.pairLo, p.pairHi}, p.cut, p.bound, true
}

// Mode returns the page's current protocol.
func (d *Detector) Mode(page int) Mode {
	if page < len(d.pages) {
		return d.pages[page].mode
	}
	return Invalidate
}

// Section is a maximal contiguous span of pages bound to the same
// producer (or writer pair) and consumer set — the adaptive protocol's
// binding unit, and the granularity the producer's update spans ship at.
type Section struct {
	Span      rsd.Span
	Split     bool
	Producer  int    // single producer; -1 for split sections
	Pair      [2]int // split sections only
	Consumers []int
}

// Sections clusters the currently bound pages into sections. Adjacent
// bound pages merge only when mode, producer (or pair), and consumer set
// all agree — adjacent spans bound to different consumers stay separate
// sections.
func (d *Detector) Sections() []Section {
	var pages []int
	for pg := range d.pages {
		if d.pages[pg].mode != Invalidate {
			pages = append(pages, pg)
		}
	}
	same := func(a, b int) bool {
		pa, pb := &d.pages[a], &d.pages[b]
		if pa.mode != pb.mode || !slices.Equal(pa.bound, pb.bound) {
			return false
		}
		if pa.mode == Split {
			return pa.pairLo == pb.pairLo && pa.pairHi == pb.pairHi
		}
		return pa.producer == pb.producer
	}
	var out []Section
	for _, sp := range rsd.Coalesce(pages, same) {
		p := &d.pages[sp.Lo]
		sec := Section{Span: sp, Consumers: p.bound, Producer: p.producer}
		if p.mode == Split {
			sec.Split = true
			sec.Producer = -1
			sec.Pair = [2]int{p.pairLo, p.pairHi}
		}
		out = append(out, sec)
	}
	return out
}

// Fingerprint returns a canonical rendering of the full detector state,
// used by the determinism tests: two replicas that consumed the same
// global observation stream — regardless of how each epoch's maps and
// reader lists were assembled — must return byte-identical fingerprints.
func (d *Detector) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "k=%d stats=%+v\n", d.cfg.k(), d.Stats)
	for pg := range d.pages {
		p := &d.pages[pg]
		if !p.seen {
			continue
		}
		fmt.Fprintf(&b, "%d prod=%d cons=%v cur=%v streak=%d mode=%d bound=%v pair=%d/%d@%d cons=%v/%d\n",
			pg, p.producer, p.consumers, p.cur, p.streak, p.mode, p.bound,
			p.pairLo, p.pairHi, p.cut, p.pairCons, p.pairStreak)
	}
	for _, s := range d.Sections() {
		fmt.Fprintf(&b, "section %v split=%v prod=%d pair=%v cons=%v\n",
			s.Span, s.Split, s.Producer, s.Pair, s.Consumers)
	}
	return b.String()
}

// grow extends the page table to hold page pg.
func (d *Detector) grow(pg int) {
	if pg >= len(d.pages) {
		d.pages = append(d.pages, make([]pattern, pg+1-len(d.pages))...)
	}
}

// page returns the state of a page the caller has grown d.pages to hold,
// initializing it at its first observation.
func (d *Detector) page(pg int) *pattern {
	p := &d.pages[pg]
	if !p.seen {
		*p = pattern{seen: true, producer: -1, pairLo: -1, pairHi: -1}
	}
	return p
}

// disjoint reports whether two known write extents do not overlap — the
// condition that makes a two-writer page spatial false sharing rather
// than a write conflict.
func disjoint(a, b WriteExt) bool {
	if !a.known() || !b.known() {
		return false
	}
	return a.Hi <= b.Lo || b.Hi <= a.Lo
}

// union returns the sorted union of two sorted sets: a itself when b adds
// nothing, fresh storage otherwise (a binding handed out by Push or Split
// is never modified in place).
func union(a, b []int) []int {
	out := a
	for _, v := range b {
		if i, found := slices.BinarySearch(out, v); !found {
			if len(out) == len(a) {
				out = slices.Clone(a)
			}
			out = slices.Insert(out, i, v)
		}
	}
	return out
}
