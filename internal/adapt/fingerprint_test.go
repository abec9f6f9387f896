package adapt

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Section is a maximal contiguous page range [Lo, Hi) bound to the same
// producer (or writer pair) and consumer set: the shape the binding state
// takes when read as spans, which the fingerprint renders and
// TestSectionsClustering pins.
type Section struct {
	Lo, Hi    int
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
	same := func(pa, pb *pattern) bool {
		if pa.mode != pb.mode || !slices.Equal(pa.bound, pb.bound) {
			return false
		}
		if pa.mode == Split {
			return pa.pairLo == pb.pairLo && pa.pairHi == pb.pairHi
		}
		return pa.producer == pb.producer
	}
	var out []Section
	for pg := range d.pages {
		p := &d.pages[pg]
		if p.mode == Invalidate {
			continue
		}
		if n := len(out); n > 0 && out[n-1].Hi == pg && same(&d.pages[pg-1], p) {
			out[n-1].Hi = pg + 1
			continue
		}
		sec := Section{Lo: pg, Hi: pg + 1, Consumers: p.bound, Producer: p.producer}
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
		fmt.Fprintf(&b, "section [%d,%d) split=%v prod=%d pair=%v cons=%v\n",
			s.Lo, s.Hi, s.Split, s.Producer, s.Pair, s.Consumers)
	}
	return b.String()
}

// Fingerprint returns a canonical rendering of the full detector state,
// used by the determinism tests: two replicas that consumed the same
// serialized observation stream must return byte-identical fingerprints.
func (ld *LockDetector) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "k=%d m=%d started=%v cur=%d>%d\n", ld.k, ld.m, ld.started, ld.cur.From, ld.cur.To)
	keys := make([]lockEdge, 0, len(ld.edges))
	for e := range ld.edges {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].From != keys[j].From {
			return keys[i].From < keys[j].From
		}
		return keys[i].To < keys[j].To
	})
	for _, e := range keys {
		es := ld.edges[e]
		fmt.Fprintf(&b, "%d>%d next=%d/%d want=%v/%d bound=%v pushes=%d probing=%v\n",
			e.From, e.To, es.next, es.nextRun, es.want, es.wantRun, es.bound, es.pushes, es.probing)
	}
	fmt.Fprintf(&b, "stats=%+v\n", ld.Stats)
	return b.String()
}
