package tmk

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sdsm/internal/shm"
	"sdsm/internal/wire"
)

// wsyncResponderLogScan is the interval-log scan the responder table
// replaced, kept as the reference it must agree with: walk every interval
// of every other owner beyond the requester's floor, binary-searching each
// for the page.
func wsyncResponderLogScan(nd *Node, req int, appliedPg []int32, pg int) []int {
	find := func(iv wire.Interval) (wire.PageRef, bool) {
		i := sort.Search(len(iv.Pages), func(i int) bool { return int(iv.Pages[i].Page) >= pg })
		if i < len(iv.Pages) && int(iv.Pages[i].Page) == pg {
			return iv.Pages[i], true
		}
		return wire.PageRef{}, false
	}
	var latest notice
	owners := map[int]bool{}
	for o := range nd.vc {
		if o == req {
			continue
		}
		for idx := appliedPg[o] + 1; idx <= nd.vc[o]; idx++ {
			ref, ok := find(nd.know[o].at(idx))
			if !ok {
				continue
			}
			owners[o] = true
			if idx > latest.idx || (idx == latest.idx && int32(o) > latest.owner) {
				latest = notice{owner: int32(o), idx: idx, whole: ref.Whole}
			}
		}
	}
	if latest.whole {
		return []int{int(latest.owner)}
	}
	out := make([]int, 0, len(owners))
	for o := range owners {
		out = append(out, o)
	}
	sort.Ints(out)
	return out
}

// randomInterval builds a closed interval over a random sorted page set
// (one page when split), each reference Whole with probability 1/3.
func randomInterval(rng *rand.Rand, pages int, split bool) wire.Interval {
	var iv wire.Interval
	for pg := 0; pg < pages; pg++ {
		if !split && rng.Intn(3) == 0 {
			iv.Pages = append(iv.Pages, wire.PageRef{Page: int32(pg), Whole: rng.Intn(3) == 0})
		}
	}
	if split {
		iv.Pages = []wire.PageRef{{Page: int32(rng.Intn(pages)), Whole: rng.Intn(3) == 0}}
	}
	return iv
}

// appendRandomLog grows every owner's log at nd by a few random intervals,
// as the arrivals of one barrier would (the node's own included: the master
// indexes its own intervals like anyone's).
func appendRandomLog(rng *rand.Rand, nd *Node, pages int) {
	for o := range nd.vc {
		for k := rng.Intn(4); k > 0; k-- {
			nd.know[o].push(randomInterval(rng, pages, rng.Intn(4) == 0))
			nd.vc[o]++
		}
	}
}

func TestWSyncResponderMatchesLogScan(t *testing.T) {
	const n, pages = 5, 7
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nd := testSystem(n, pages*shm.PageWords).Nodes[0]
		for barrier := 0; barrier < 8; barrier++ {
			if barrier == 5 {
				nd.wipe() // a master that fails restarts its log, and the table with it
			}
			appendRandomLog(rng, nd, pages)
			for q := 0; q < 60; q++ {
				req, pg := rng.Intn(n), rng.Intn(pages)
				applied := make([]int32, n)
				for o := range applied {
					switch rng.Intn(4) {
					case 0: // never fetched: the whole history is news
					case 1:
						applied[o] = nd.vc[o]
					default:
						applied[o] = int32(rng.Intn(int(nd.vc[o]) + 1))
					}
				}
				want := wsyncResponderLogScan(nd, req, applied, pg)
				got := nd.wsyncResponder(req, applied, pg)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d barrier %d: req %d page %d applied %v vc %v: table says %v, log scan %v",
						seed, barrier, req, pg, applied, nd.vc, got, want)
				}
				if q%20 == 0 {
					// A responder's flush may split an interval between two
					// calls of one resolution; the table must see it.
					o := rng.Intn(n)
					nd.know[o].push(randomInterval(rng, pages, true))
					nd.vc[o]++
				}
			}
		}
	}
}

// respondersAppendAll is the responders rule, as an ascending owner list,
// over a pending list that keeps every unapplied notice (what learnInterval
// used to append): the reference for the compacted per-owner form.
func respondersAppendAll(pend []notice) []int {
	if len(pend) == 0 {
		return nil
	}
	latest := pend[0]
	owners := map[int]bool{}
	for _, n := range pend {
		owners[int(n.owner)] = true
		if n.idx > latest.idx || (n.idx == latest.idx && n.owner > latest.owner) {
			latest = n
		}
	}
	if latest.whole {
		return []int{int(latest.owner)}
	}
	out := make([]int, 0, len(owners))
	for o := range owners {
		out = append(out, o)
	}
	sort.Ints(out)
	return out
}

// TestPendingCompaction feeds a node k barriers' worth of notices it never
// fetches, with a reference that appends every one: a page holds at most
// one notice per remote owner however long it goes unread, and the readers
// — responders, and prunePending's emptiness after applied timestamps
// advance — agree with the append-everything list throughout.
func TestPendingCompaction(t *testing.T) {
	const n, pages, me = 4, 5, 2
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nd := testSystem(n, pages*shm.PageWords).Nodes[me]
		ref := make([][]notice, pages)
		check := func(when string) {
			t.Helper()
			for pg := 0; pg < pages; pg++ {
				if len(nd.pages[pg].pending) > n-1 {
					t.Fatalf("seed %d %s: page %d holds %d notices, more than one per remote owner: %+v",
						seed, when, pg, len(nd.pages[pg].pending), nd.pages[pg].pending)
				}
				var got []int
				for _, p := range nd.responders(nil, pg) {
					got = append(got, p.r)
				}
				slices.Sort(got)
				if want := respondersAppendAll(ref[pg]); !slices.Equal(got, want) {
					t.Fatalf("seed %d %s: page %d responders %v, append-everything reference %v", seed, when, pg, got, want)
				}
			}
		}
		for barrier := 0; barrier < 12; barrier++ {
			for o := 0; o < n; o++ {
				if o == me {
					continue
				}
				for k := rng.Intn(3); k > 0; k-- {
					iv, idx := randomInterval(rng, pages, rng.Intn(4) == 0), nd.vc[o]+1
					for _, r := range iv.Pages {
						if nd.pages[r.Page].applied[o] < idx {
							ref[r.Page] = append(ref[r.Page], notice{owner: int32(o), idx: idx, whole: r.Whole})
						}
					}
					nd.learnInterval(o, idx, iv)
				}
			}
			check("after learning")
			// Some data arrives: a page's applied row advances for one owner
			// and the satisfied notices are pruned from both lists.
			pg, o := rng.Intn(pages), rng.Intn(n)
			nd.pages[pg].applied[o] = max(nd.pages[pg].applied[o], int32(rng.Intn(int(nd.vc[o])+1)))
			nd.prunePending(pg)
			ref[pg] = slices.DeleteFunc(ref[pg], func(nt notice) bool { return nt.idx <= nd.pages[pg].applied[nt.owner] })
			check("after pruning")
		}
	}
}

// TestPushReadsItsArguments pins what lets the interpreter hand Push the
// same plan again (interp's Push memo): Push leaves send and from exactly
// as passed.
func TestPushReadsItsArguments(t *testing.T) {
	const n = 3
	s := testSystem(n, n*shm.PageWords)
	reads, writes := make([][]shm.Region, n), make([][]shm.Region, n)
	for i := range reads {
		writes[i] = region(i*shm.PageWords, i*shm.PageWords+40)
		reads[i] = shm.Normalize(append(region(0, 16), region((i+1)%n*shm.PageWords+8, (i+1)%n*shm.PageWords+24)...))
	}
	send, from := make([][][]shm.Region, n), make([][]bool, n)
	wantSend, wantFrom := make([][][]shm.Region, n), make([][]bool, n)
	for i := range send {
		send[i], from[i] = pushPlan(i, reads, writes)
		wantFrom[i] = slices.Clone(from[i])
		for _, rs := range send[i] {
			wantSend[i] = append(wantSend[i], slices.Clone(rs))
		}
	}
	if len(send[1][0]) == 0 || !from[0][1] {
		t.Fatal("test sections do not intersect")
	}
	run(t, s, func(nd *Node) {
		for it := 0; it < 3; it++ {
			w(nd, nd.ID*shm.PageWords+it, float64(it+1))
			nd.Push(send[nd.ID], from[nd.ID])
			nd.Barrier(1)
		}
	})
	for i := range send {
		if !slices.Equal(from[i], wantFrom[i]) || !slices.EqualFunc(send[i], wantSend[i], slices.Equal) {
			t.Fatalf("Push changed its arguments for rank %d: send %v (want %v), from %v (want %v)",
				i, send[i], wantSend[i], from[i], wantFrom[i])
		}
	}
}

// TestValidateWSyncOwnsItsRegistration: the interpreter rebuilds a
// Validate's regions in the same storage when the statement runs again
// with moved bounds, so a registration must not read the caller's regions
// after ValidateWSync returns. Page 0 is registered READ&WRITE_ALL, whole;
// the slice is then rewritten to name page 1 before the barrier. The
// barrier must still enable page 0 without a twin and leave page 1 alone.
func TestValidateWSyncOwnsItsRegistration(t *testing.T) {
	s := testSystem(2, 2*shm.PageWords)
	run(t, s, func(nd *Node) {
		if nd.ID == 1 {
			regions := region(0, shm.PageWords)
			nd.ValidateWSync(AccReadWriteAll, regions)
			regions[0] = shm.Region{Lo: shm.PageWords, Hi: 2 * shm.PageWords}
		}
		nd.Barrier(1)
		if nd.ID == 1 {
			if e := &nd.pages[0]; !e.dirty || !e.noTwin || nd.Mem.HasTwin(0) {
				t.Errorf("page 0: dirty %v, WRITE_ALL mode %v, twin %v; want a twin-free writable page", e.dirty, e.noTwin, nd.Mem.HasTwin(0))
			}
			if nd.pages[1].dirty {
				t.Error("page 1, named only after the registration, was enabled for writing")
			}
		}
		nd.Barrier(2)
	})
}

// TestValidateWSyncRegistrationsShareAPage: registrations of one epoch
// carve their page lists from one slab, so the second, whose first page is
// the page the first one ended on, must still list that page. Page 1 is
// registered for reading, then READ&WRITE_ALL with page 2: the barrier
// must leave it enabled for writing without a twin.
func TestValidateWSyncRegistrationsShareAPage(t *testing.T) {
	s := testSystem(2, 3*shm.PageWords)
	run(t, s, func(nd *Node) {
		if nd.ID == 1 {
			nd.ValidateWSync(AccRead, region(0, 2*shm.PageWords))
			nd.ValidateWSync(AccReadWriteAll, region(shm.PageWords, 3*shm.PageWords))
		}
		nd.Barrier(1)
		if nd.ID == 1 {
			for pg := 1; pg < 3; pg++ {
				if e := &nd.pages[pg]; !e.dirty || !e.noTwin {
					t.Errorf("page %d: dirty %v, WRITE_ALL mode %v; want it writable without a twin", pg, e.dirty, e.noTwin)
				}
			}
		}
		nd.Barrier(2)
	})
}
