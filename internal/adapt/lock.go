package adapt

import (
	"slices"
	"sort"
)

// Lock-scope pattern detection.
//
// The barrier detector (adapt.go) observes barrier epochs, so migratory
// data under locks — IS's bucket sections, a branch-and-bound's shared
// best bound — never promotes there: the pages have a different writer
// every epoch, which is exactly the multi-writer shape the barrier
// detector must decay on. The migratory pattern is only visible in the
// lock's own serialized history: the same hand-off chain repeats every
// iteration, and each holder faults on the same pages inside its critical
// section.
//
// LockDetector tracks that history for one lock. Its observation stream
// is inherently serialized (every hand-off goes through the lock's home
// and the grant chain), so unlike the barrier detector there is nothing to
// relay: both ends of every grant observe the hand-off, and the detector
// state lives with the lock's control state, moving under the same
// protocol-section serialization as the holder and queue fields. The
// piggybacked data itself is self-describing — the acquirer applies
// whatever diffs ride the grant through the normal diff path — so no
// negotiation is needed and a stale or wrong prediction costs bytes, never
// correctness.
//
// The pattern model is keyed by hand-off *edges* (from → to), not by
// holders: in a staggered rotation the same node acquires the same lock
// from different predecessors at different positions of the cycle (IS's
// own-section zeroing versus its accumulate visit), with different
// working sets at each position. An edge recurs once per iteration, which
// makes "this edge's working set held for K cycles" the lock-scope
// analogue of the barrier detector's K stable production cycles.
//
// A bound edge's working set is a page set here; its section shape
// appears at the wire. Critical sections touch contiguous spans (a
// holder's bucket rows, a queue block), so the grant builder coalesces
// the piggybacked chains into run-length section spans
// (wire.CoalesceDiffs → wire.Grant.Pushed): adjacent pages' chain links
// share one header each instead of paying the per-page diff header — the
// same economy the barrier detector gets from clustering its bindings
// into rsd spans.
const (
	// DefaultReprobeM is the default number of consecutive piggybacked
	// grants on one edge before the binding is re-probed (see Grant).
	DefaultReprobeM = 8
)

func (c Config) m() int {
	if c.ReprobeM <= 0 {
		return DefaultReprobeM
	}
	return c.ReprobeM
}

// lockEdge is one hand-off shape: the lock moved from holder From to
// holder To. Self-edges (From == To) occur when a node re-acquires a lock
// it released last; they are tracked for chain continuity but never bound
// (there is nothing to piggyback to yourself).
type lockEdge struct {
	From, To int
}

// edgeState is the detector state of one hand-off edge.
type edgeState struct {
	next    int   // holder observed to acquire after this edge; -1 unknown
	nextRun int   // consecutive confirmations of next
	want    []int // sorted pages To fetched in its critical section via this edge
	wantRun int   // consecutive occurrences with the same want set
	bound   bool  // piggyback want on this edge's grants
	pushes  int   // consecutive piggybacks since the last re-probe
	probing bool  // the current occurrence withheld the piggyback
}

// LockStats counts one lock detector's transitions.
type LockStats struct {
	Promotions int64 // edges switched to grant-piggybacked updates
	Decays     int64 // bindings dropped on a broken pattern
	Probes     int64 // piggybacks withheld for a staleness re-probe
	StaleDrops int64 // bindings dropped because a re-probe went unread
}

// LockDetector is the migratory-pattern detector for a single lock. It is
// driven by two events in the lock's serialized order: Grant, at every
// hand-off (the releaser's side decides the piggyback there), and Hold,
// at every release (the departing holder reports the pages it
// demand-fetched inside the critical section). The caller guarantees the
// events alternate per holder: every Hold belongs to the most recent
// Grant.
type LockDetector struct {
	k, m    int
	cur     lockEdge
	started bool
	edges   map[lockEdge]*edgeState
	Stats   LockStats
}

// NewLock creates a detector for one lock.
func NewLock(cfg Config) *LockDetector {
	return &LockDetector{k: cfg.k(), m: cfg.m(), edges: map[lockEdge]*edgeState{}}
}

// Grant records the hand-off from → to and returns the pages whose diffs
// the releaser should piggyback on this grant (nil when the edge is not
// bound, or when this occurrence is a staleness re-probe — the probe
// deliberately lets the acquirer fault so its fetch report reveals
// whether it still reads the bound pages).
func (ld *LockDetector) Grant(from, to int) (pages []int) {
	e := lockEdge{From: from, To: to}
	if ld.started {
		pe := ld.edge(ld.cur)
		if pe.next == to {
			pe.nextRun++
		} else {
			if pe.next >= 0 {
				// Mispredicted next holder: the rotation broke. The edge we
				// expected to follow decays immediately — its piggybacks
				// would land at the wrong node's turn.
				ld.decay(lockEdge{From: ld.cur.To, To: pe.next})
			}
			pe.next = to
			pe.nextRun = 1
		}
	}
	es := ld.edge(e)
	ld.cur = e
	ld.started = true
	if from == to || !es.bound {
		return nil
	}
	if es.pushes >= ld.m {
		es.probing = true
		es.pushes = 0
		ld.Stats.Probes++
		return nil
	}
	es.pushes++
	return es.want
}

// Hold records the departing holder's critical-section demand fetches for
// the current edge (the one its acquire was granted through). fetched may
// arrive in any order; it is canonicalized here.
func (ld *LockDetector) Hold(fetched []int) {
	if !ld.started {
		return
	}
	f := append([]int(nil), fetched...)
	sort.Ints(f)
	es := ld.edge(ld.cur)
	if es.bound {
		if es.probing {
			// Re-probe verdict: pages the holder still fetched are still
			// read (the piggyback was withheld, so live pages fault); pages
			// absent from the report went unread and leave the binding.
			es.probing = false
			kept := intersect(es.want, f)
			if len(kept) == 0 {
				es.bound = false
				es.wantRun = 0
				es.want = nil
				ld.Stats.StaleDrops++
				return
			}
			es.want = kept
			return
		}
		if len(intersect(es.want, f)) > 0 {
			// A piggybacked page was fetched anyway: someone outside the
			// lock chain wrote it (the piggybacked diffs could not satisfy
			// its notices). The pattern no longer owns the page — decay.
			ld.decay(ld.cur)
			return
		}
		if len(f) > 0 {
			// Extra fetches outside the binding: pages the piggyback
			// missed. Extend the binding, as the barrier detector does.
			es.want = union(es.want, f)
		}
		return
	}
	if slices.Equal(f, es.want) {
		es.wantRun++
	} else {
		es.want = f
		es.wantRun = 1
	}
	// Promote when the edge's working set held for K occurrences and its
	// successor held for the K-1 hand-offs in between: the hysteresis pins
	// both halves of the pattern ("who comes next" and "what they touch").
	if ld.cur.From != ld.cur.To && len(es.want) > 0 &&
		es.wantRun >= ld.k && es.nextRun >= ld.k-1 {
		es.bound = true
		es.pushes = 0
		ld.Stats.Promotions++
	}
}

// Bound reports whether the edge from → to currently piggybacks, and the
// pages it would push.
func (ld *LockDetector) Bound(from, to int) ([]int, bool) {
	es, ok := ld.edges[lockEdge{From: from, To: to}]
	if !ok || !es.bound {
		return nil, false
	}
	return es.want, true
}

// decay drops an edge's binding and resets its hysteresis.
func (ld *LockDetector) decay(e lockEdge) {
	es, ok := ld.edges[e]
	if !ok {
		return
	}
	if es.bound {
		ld.Stats.Decays++
	}
	es.bound = false
	es.probing = false
	es.wantRun = 0
	es.pushes = 0
}

func (ld *LockDetector) edge(e lockEdge) *edgeState {
	es, ok := ld.edges[e]
	if !ok {
		es = &edgeState{next: -1}
		ld.edges[e] = es
	}
	return es
}

// intersect returns the sorted intersection of two sorted sets.
func intersect(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
