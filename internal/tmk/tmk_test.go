package tmk

import (
	"slices"
	"testing"
	"time"

	"sdsm/internal/host"
	"sdsm/internal/model"
	"sdsm/internal/shm"
	"sdsm/internal/sim"
	"sdsm/internal/wire"
)

// testSystem builds an n-node DSM over `words` words of shared memory.
func testSystem(n, words int) *System {
	e := sim.NewEngine(n)
	nw := host.NewNetwork(e, model.SP2())
	layout := shm.NewLayout()
	layout.Alloc("mem", words)
	return New(e, nw, layout)
}

func run(t *testing.T, s *System, body func(nd *Node)) {
	t.Helper()
	if err := s.Run(body); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func region(lo, hi int) []shm.Region { return []shm.Region{{Lo: lo, Hi: hi}} }

// pushAs runs nd's Push for a barrier around which processor i wrote
// writes[i] before and reads reads[i] after (pushPlan).
func pushAs(nd *Node, reads, writes [][]shm.Region) {
	nd.Push(pushPlan(nd.ID, reads, writes))
}

// pushPlan derives what processor me's Push sends and receives from every
// processor's normalized read and write region sets, by intersecting word
// lists (intersectSets) as Push itself did before the interpreter began
// intersecting sections.
func pushPlan(me int, reads, writes [][]shm.Region) (send [][]shm.Region, from []bool) {
	send, from = make([][]shm.Region, len(reads)), make([]bool, len(reads))
	for i := range reads {
		if i != me {
			send[i] = intersectSets(writes[me], reads[i])
			from[i] = len(intersectSets(writes[i], reads[me])) > 0
		}
	}
	return send, from
}

// intersectSets is the intersection of two normalized region sets, region
// pair by region pair: the word-list oracle.
func intersectSets(a, b []shm.Region) []shm.Region {
	var out []shm.Region
	for _, ra := range a {
		for _, rb := range b {
			if x := ra.Intersect(rb); !x.Empty() {
				out = append(out, x)
			}
		}
	}
	return shm.Normalize(out)
}

// w writes value v at word addr through the protection machinery.
func w(nd *Node, addr int, v float64) {
	nd.Mem.EnsureWrite(nd.p, shm.Region{Lo: addr, Hi: addr + 1})
	nd.Mem.Data()[addr] = v
}

// r reads word addr through the protection machinery.
func r(nd *Node, addr int) float64 {
	nd.Mem.EnsureRead(nd.p, shm.Region{Lo: addr, Hi: addr + 1})
	return nd.Mem.Data()[addr]
}

func TestBarrierPropagatesWrites(t *testing.T) {
	s := testSystem(2, 2*shm.PageWords)
	run(t, s, func(nd *Node) {
		if nd.ID == 0 {
			w(nd, 10, 42)
		}
		nd.Barrier(1)
		if nd.ID == 1 {
			if got := r(nd, 10); got != 42 {
				t.Errorf("node 1 read %v, want 42", got)
			}
		}
	})
}

func TestInvalidateOnBarrierDeparture(t *testing.T) {
	s := testSystem(2, 2*shm.PageWords)
	run(t, s, func(nd *Node) {
		if nd.ID == 0 {
			w(nd, 10, 1)
		}
		nd.Barrier(1)
	})
	// Node 1 must have the page invalidated (lazy: data not moved yet).
	if len(s.Nodes[1].pages[0].pending) == 0 {
		t.Fatal("node 1 has no pending notice for page 0")
	}
	vc, _ := s.Stats()
	if vc.ReadFaults+vc.WriteFaults == 0 {
		t.Fatal("expected at least the write fault on node 0")
	}
}

func TestMultipleWriterFalseSharing(t *testing.T) {
	// Two nodes write disjoint words of the same page between barriers;
	// both must end with both updates (multiple-writer protocol).
	s := testSystem(2, shm.PageWords)
	run(t, s, func(nd *Node) {
		if nd.ID == 0 {
			w(nd, 3, 30)
		} else {
			w(nd, 400, 77)
		}
		nd.Barrier(1)
		if got := r(nd, 3); got != 30 {
			t.Errorf("node %d: word 3 = %v, want 30", nd.ID, got)
		}
		if got := r(nd, 400); got != 77 {
			t.Errorf("node %d: word 400 = %v, want 77", nd.ID, got)
		}
	})
}

func TestThreeWritersConverge(t *testing.T) {
	s := testSystem(3, shm.PageWords)
	run(t, s, func(nd *Node) {
		w(nd, 10*(nd.ID+1), float64(nd.ID+1))
		nd.Barrier(1)
		for i := 1; i <= 3; i++ {
			if got := r(nd, 10*i); got != float64(i) {
				t.Errorf("node %d: word %d = %v, want %d", nd.ID, 10*i, got, i)
			}
		}
	})
}

func TestLockMigratoryData(t *testing.T) {
	// A counter incremented under a lock must be seen by each next holder.
	s := testSystem(4, shm.PageWords)
	run(t, s, func(nd *Node) {
		for turn := 0; turn < 4; turn++ {
			nd.Acquire(7)
			v := r(nd, 0)
			w(nd, 0, v+1)
			nd.Release(7)
		}
	})
	// After all 16 increments, re-check on node 0 via a fresh system run is
	// not possible; check each node's applied copy by summing final values.
	var max float64
	for _, nd := range s.Nodes {
		if v := nd.Mem.Data()[0]; v > max {
			max = v
		}
	}
	if max != 16 {
		t.Fatalf("counter = %v, want 16", max)
	}
}

func TestFreeLockAcquireTiming(t *testing.T) {
	// Paper: minimum time to acquire a free lock is 427 µs. Lock 1 on a
	// 2-node system has home node 1; node 0 acquiring it (home == last
	// releaser) is the minimal remote case.
	s := testSystem(2, shm.PageWords)
	var elapsed time.Duration
	run(t, s, func(nd *Node) {
		if nd.ID == 0 {
			start := nd.p.Now()
			nd.Acquire(1)
			elapsed = nd.p.Now() - start
			nd.Release(1)
		}
	})
	if elapsed != 427*time.Microsecond {
		t.Fatalf("free lock acquire = %v, want 427µs", elapsed)
	}
}

func TestBarrierTimingNearPaper(t *testing.T) {
	// Paper: minimum 8-processor barrier is 893 µs.
	s := testSystem(8, shm.PageWords)
	var worst time.Duration
	run(t, s, func(nd *Node) {
		start := nd.p.Now()
		nd.Barrier(1)
		if d := nd.p.Now() - start; d > worst {
			worst = d
		}
	})
	if worst < 800*time.Microsecond || worst > 1000*time.Microsecond {
		t.Fatalf("8-node barrier = %v, want ~893µs", worst)
	}
}

func TestLockQueueing(t *testing.T) {
	// All nodes contend; critical sections must serialize in virtual time.
	s := testSystem(4, shm.PageWords)
	type span struct{ start, end time.Duration }
	spans := make([]span, 4)
	run(t, s, func(nd *Node) {
		nd.Acquire(3)
		start := nd.p.Now()
		nd.p.Advance(100 * time.Microsecond)
		spans[nd.ID] = span{start, nd.p.Now()}
		nd.Release(3)
	})
	for i := range spans {
		for j := range spans {
			if i == j {
				continue
			}
			a, b := spans[i], spans[j]
			if a.start < b.end && b.start < a.end {
				t.Fatalf("critical sections overlap: %v and %v", a, b)
			}
		}
	}
}

func TestValidateAggregatesMessages(t *testing.T) {
	// Node 0 writes 8 pages; node 1 reads them all. With per-fault fetching
	// there are 8 exchanges; with Validate there is 1.
	const pages = 8
	runCase := func(useValidate bool) (msgs int64, faults int64) {
		s := testSystem(2, pages*shm.PageWords)
		if err := s.Run(func(nd *Node) {
			if nd.ID == 0 {
				for pg := 0; pg < pages; pg++ {
					w(nd, pg*shm.PageWords, float64(pg+1))
				}
			}
			nd.Barrier(1)
			if nd.ID == 1 {
				if useValidate {
					nd.Validate(AccRead, region(0, pages*shm.PageWords), false)
				}
				for pg := 0; pg < pages; pg++ {
					if got := r(nd, pg*shm.PageWords); got != float64(pg+1) {
						t.Errorf("page %d = %v", pg, got)
					}
				}
			}
			nd.Barrier(2)
		}); err != nil {
			t.Fatal(err)
		}
		vc, _ := s.Stats()
		return s.NW.Stats().Msgs, vc.ReadFaults
	}
	msgsBase, faultsBase := runCase(false)
	msgsOpt, faultsOpt := runCase(true)
	if msgsOpt >= msgsBase {
		t.Fatalf("validate did not reduce messages: %d vs %d", msgsOpt, msgsBase)
	}
	if faultsOpt >= faultsBase {
		t.Fatalf("validate did not reduce faults: %d vs %d", faultsOpt, faultsBase)
	}
}

func TestWriteAllEliminatesTwinsAndDiffs(t *testing.T) {
	const pages = 4
	runCase := func(writeAll bool) (twins, diffs int64) {
		s := testSystem(2, pages*shm.PageWords)
		if err := s.Run(func(nd *Node) {
			for iter := 0; iter < 3; iter++ {
				if nd.ID == 0 {
					// Whole-section overwrite, as WRITE_ALL promises.
					if writeAll {
						nd.Validate(AccWriteAll, region(0, pages*shm.PageWords), false)
					}
					nd.Mem.EnsureWrite(nd.p, shm.Region{Lo: 0, Hi: pages * shm.PageWords})
					d := nd.Mem.Data()
					for i := 0; i < pages*shm.PageWords; i++ {
						d[i] = float64(iter*1000 + i%shm.PageWords)
					}
				}
				nd.Barrier(1)
				if nd.ID == 1 {
					nd.Validate(AccRead, region(0, pages*shm.PageWords), false)
					for pg := 0; pg < pages; pg++ {
						if got := r(nd, pg*shm.PageWords+5); got != float64(iter*1000+5) {
							t.Errorf("iter %d page %d word 5 = %v", iter, pg, got)
						}
					}
				}
				nd.Barrier(2)
			}
		}); err != nil {
			t.Fatal(err)
		}
		vc, _ := s.Stats()
		return vc.Twins, vc.Diffs
	}
	twinsBase, _ := runCase(false)
	twinsOpt, _ := runCase(true)
	if twinsOpt >= twinsBase {
		t.Fatalf("WRITE_ALL did not reduce twins: %d vs %d", twinsOpt, twinsBase)
	}
	if twinsOpt != 0 {
		t.Fatalf("WRITE_ALL version made %d twins, want 0", twinsOpt)
	}
}

func TestPushDeliversDataAndSkipsInvalidation(t *testing.T) {
	// Node 0 writes page 0; Push sends it to node 1 replacing a barrier.
	// After the next real barrier, node 1 must not re-invalidate the page.
	s := testSystem(2, 2*shm.PageWords)
	run(t, s, func(nd *Node) {
		reads := [][]shm.Region{
			0: {},
			1: {{Lo: 0, Hi: shm.PageWords}},
		}
		writes := [][]shm.Region{
			0: {{Lo: 0, Hi: shm.PageWords}},
			1: {},
		}
		if nd.ID == 0 {
			nd.Validate(AccWriteAll, region(0, shm.PageWords), false)
			d := nd.Mem.Data()
			for i := 0; i < shm.PageWords; i++ {
				d[i] = float64(i) + 0.5
			}
		}
		pushAs(nd, reads, writes)
		if nd.ID == 1 {
			if got := r(nd, 100); got != 100.5 {
				t.Errorf("pushed word = %v, want 100.5", got)
			}
		}
		faultsBefore := nd.Mem.Counters.ReadFaults
		nd.Barrier(9)
		if nd.ID == 1 {
			if got := r(nd, 200); got != 200.5 {
				t.Errorf("after barrier, word = %v, want 200.5", got)
			}
			if nd.Mem.Counters.ReadFaults != faultsBefore {
				t.Errorf("node 1 re-faulted on pushed page after barrier")
			}
		}
	})
}

func TestDiffAccumulation(t *testing.T) {
	// Migratory page under a lock chain: the last acquirer receives the
	// overlapping diffs of all previous writers (the IS phenomenon).
	const n = 4
	s := testSystem(n, shm.PageWords)
	run(t, s, func(nd *Node) {
		nd.Acquire(1)
		// Every node overwrites the same words.
		nd.Mem.EnsureWrite(nd.p, shm.Region{Lo: 0, Hi: 64})
		d := nd.Mem.Data()
		for i := 0; i < 64; i++ {
			d[i] = float64(nd.ID*1000 + i)
		}
		nd.Release(1)
		nd.Barrier(1)
	})
	_, ps := s.Stats()
	// Nodes 1..3 fault once each; node k applies k overlapping diffs.
	if ps.DiffsApplied < 1+2+3 {
		t.Fatalf("diffs applied = %d, want >= 6 (accumulation)", ps.DiffsApplied)
	}
}

func TestWholePageNoticeSubsumesOlderDiffs(t *testing.T) {
	// When writers use WRITE_ALL (no twins), a reader fetches only from the
	// most recent whole-page writer instead of accumulating diffs.
	const n = 4
	s := testSystem(n, shm.PageWords)
	run(t, s, func(nd *Node) {
		// Stagger so the lock chain order is 0,1,2,3 regardless of the
		// interrupt charges the lock home fields.
		nd.p.Advance(time.Duration(nd.ID) * time.Millisecond)
		nd.Acquire(1)
		nd.Validate(AccReadWriteAll, region(0, shm.PageWords), false)
		d := nd.Mem.Data()
		for i := 0; i < shm.PageWords; i++ {
			d[i] = float64(nd.ID*1000 + i)
		}
		nd.Release(1)
		nd.Barrier(1)
		if nd.ID == 0 {
			nd.Validate(AccRead, region(0, shm.PageWords), false)
			if got := r(nd, 5); got != float64(3*1000+5) {
				t.Errorf("final read = %v, want %v", got, float64(3*1000+5))
			}
		}
		nd.Barrier(2)
	})
	_, ps := s.Stats()
	if ps.DiffsApplied > 6 {
		t.Fatalf("whole-page fetches applied %d diffs; accumulation not avoided", ps.DiffsApplied)
	}
}

func TestAsyncValidateOverlaps(t *testing.T) {
	// With compute between Validate and access, async beats sync.
	runCase := func(async bool) time.Duration {
		s := testSystem(2, 8*shm.PageWords)
		var done time.Duration
		if err := s.Run(func(nd *Node) {
			if nd.ID == 0 {
				nd.Mem.EnsureWrite(nd.p, shm.Region{Lo: 0, Hi: 8 * shm.PageWords})
				d := nd.Mem.Data()
				for i := range d {
					d[i] = float64(i)
				}
			}
			nd.Barrier(1)
			if nd.ID == 1 {
				nd.Validate(AccRead, region(0, 8*shm.PageWords), async)
				nd.p.Advance(2 * time.Millisecond) // independent compute
				if got := r(nd, 77); got != 77 {
					t.Errorf("read %v, want 77", got)
				}
				done = nd.p.Now()
			}
			nd.Barrier(2)
		}); err != nil {
			t.Fatal(err)
		}
		return done
	}
	sync := runCase(false)
	async := runCase(true)
	if async >= sync {
		t.Fatalf("async validate (%v) not faster than sync (%v)", async, sync)
	}
}

func TestValidateWSyncAtBarrier(t *testing.T) {
	// Producer writes; consumers register Validate_w_sync before the
	// barrier; data arrives with the synchronization, with no page faults
	// on the consumers afterwards.
	const n = 4
	s := testSystem(n, shm.PageWords)
	run(t, s, func(nd *Node) {
		if nd.ID == 0 {
			nd.Mem.EnsureWrite(nd.p, shm.Region{Lo: 0, Hi: 64})
			d := nd.Mem.Data()
			for i := 0; i < 64; i++ {
				d[i] = float64(i) * 2
			}
		}
		if nd.ID != 0 {
			nd.ValidateWSync(AccRead, region(0, 64))
		}
		nd.Barrier(1)
		if nd.ID != 0 {
			before := nd.Mem.Counters.ReadFaults
			if got := r(nd, 30); got != 60 {
				t.Errorf("node %d read %v, want 60", nd.ID, got)
			}
			if nd.Mem.Counters.ReadFaults != before {
				t.Errorf("node %d faulted despite Validate_w_sync", nd.ID)
			}
		}
		nd.Barrier(2)
	})
	_, ps := s.Stats()
	if ps.WSyncServes == 0 {
		t.Fatal("no wsync responses recorded")
	}
	if ps.WSyncBcasts == 0 {
		t.Fatal("identical data to all consumers should broadcast")
	}
}

func TestValidateWSyncOnLock(t *testing.T) {
	s := testSystem(2, shm.PageWords)
	run(t, s, func(nd *Node) {
		if nd.ID == 0 {
			nd.Acquire(5)
			nd.Mem.EnsureWrite(nd.p, shm.Region{Lo: 0, Hi: 32})
			d := nd.Mem.Data()
			for i := 0; i < 32; i++ {
				d[i] = 7
			}
			nd.Release(5)
		} else {
			nd.p.Advance(5 * time.Millisecond) // let node 0 go first
			nd.ValidateWSync(AccRead, region(0, 32))
			nd.Acquire(5)
			before := nd.Mem.Counters.ReadFaults
			if got := r(nd, 10); got != 7 {
				t.Errorf("read %v, want 7", got)
			}
			if nd.Mem.Counters.ReadFaults != before {
				t.Error("faulted despite piggybacked fetch")
			}
			nd.Release(5)
		}
	})
}

func TestDeterministicStats(t *testing.T) {
	runOnce := func() (int64, int64, time.Duration) {
		s := testSystem(4, 4*shm.PageWords)
		if err := s.Run(func(nd *Node) {
			for iter := 0; iter < 3; iter++ {
				w(nd, nd.ID*shm.PageWords+iter, float64(nd.ID*10+iter))
				nd.Barrier(1)
				if got := r(nd, ((nd.ID+1)%4)*shm.PageWords+iter); got != float64(((nd.ID+1)%4)*10+iter) {
					t.Errorf("neighbor value wrong: %v", got)
				}
				nd.Barrier(2)
			}
		}); err != nil {
			t.Fatal(err)
		}
		st := s.NW.Stats()
		return st.Msgs, st.Bytes, s.MaxTime()
	}
	m1, b1, t1 := runOnce()
	for i := 0; i < 3; i++ {
		m2, b2, t2 := runOnce()
		if m1 != m2 || b1 != b2 || t1 != t2 {
			t.Fatalf("nondeterministic: (%d,%d,%v) vs (%d,%d,%v)", m1, b1, t1, m2, b2, t2)
		}
	}
}

func TestUniprocessorNoMessages(t *testing.T) {
	s := testSystem(1, 4*shm.PageWords)
	run(t, s, func(nd *Node) {
		for i := 0; i < 100; i++ {
			w(nd, i, float64(i))
		}
		nd.Barrier(1)
		nd.Acquire(2)
		nd.Release(2)
		nd.Push([][]shm.Region{{}}, []bool{false})
		if got := r(nd, 50); got != 50 {
			t.Errorf("read %v", got)
		}
	})
	if s.NW.Stats().Msgs != 0 {
		t.Fatalf("uniprocessor run sent %d messages", s.NW.Stats().Msgs)
	}
}

func TestReacquireOwnLockIsCheap(t *testing.T) {
	s := testSystem(2, shm.PageWords)
	run(t, s, func(nd *Node) {
		if nd.ID == 0 {
			nd.Acquire(0) // home is node 0 itself
			nd.Release(0)
			before := s.NW.Stats().Msgs
			start := nd.p.Now()
			nd.Acquire(0)
			if s.NW.Stats().Msgs != before {
				t.Error("re-acquiring own lock sent messages")
			}
			if nd.p.Now()-start > 100*time.Microsecond {
				t.Errorf("re-acquire took %v", nd.p.Now()-start)
			}
			nd.Release(0)
		}
	})
}

// A whole-page snapshot's lifecycle: immutable once shared, and only
// then. (a) A snapshot nobody was handed is re-taken in place by the next
// one: the same cache entry and page, its coverage advanced and its order
// key recomputed, alone in the cache. (b) A served snapshot is handed out
// uncopied, so its values and coverage must never change again: a newer
// snapshot prunes it, takes a page of its own, and the served words stay
// put. (c) Releasing the machine gives the page of every pooled snapshot
// still cached, shared or not, back to its node's arena.
func TestSharedSnapshotIsNeverRecycled(t *testing.T) {
	s := testSystem(2, 2*shm.PageWords)
	nd := s.Nodes[0]
	snapshot := func(nd *Node, pg int, base float64) *storedDiff {
		nd.Validate(AccWriteAll, region(pg*shm.PageWords, (pg+1)*shm.PageWords), false)
		for i, d := 0, nd.Mem.PageData(pg); i < len(d); i++ {
			d[i] = base + float64(i)
		}
		nd.closeInterval() // a WRITE_ALL page is snapshotted at the release point
		if c := nd.pages[pg].diffs; len(c) != 1 || !c[0].Whole || !c[0].pooled {
			t.Fatalf("cache after snapshot %v: %+v, want exactly one pooled whole-page diff", base, c)
		}
		return nd.pages[pg].diffs[0]
	}
	page := func(d *storedDiff) *float64 { return &d.Runs[0].Vals[0] }
	serve := func() []float64 {
		var rep wire.DiffReply
		nd.serveDiffs(&wire.DiffRequest{Req: 1, Pages: []int32{0}, Applied: [][]int32{make([]int32, 2)}}, &rep)
		out := rep.Diffs
		if len(out) != 1 || !out[0].Whole {
			t.Fatalf("served %+v, want the one whole-page snapshot", out)
		}
		if &out[0].Runs[0].Vals[0] != page(nd.pages[0].diffs[0]) {
			t.Fatal("the served runs are a copy, not the cached snapshot")
		}
		return out[0].Runs[0].Vals
	}

	// (a)
	first := snapshot(nd, 0, 1000)
	to, key, buf := first.To, first.orderKey(), page(first)
	if second := snapshot(nd, 0, 2000); second != first || page(second) != buf {
		t.Fatal("an unshared snapshot was not re-taken in place")
	}
	if first.From != to || first.To <= to || first.Covers[0] != first.To {
		t.Fatalf("re-taken snapshot covers (%d, %d] with Covers %v, want (%d, >%d] with its own entry at To", first.From, first.To, first.Covers, to, to)
	}
	if first.orderKey() != key+int64(first.To-to) || first.Runs[0].Vals[5] != 2005 {
		t.Fatalf("re-taken snapshot: order key %d, word 5 = %v; want %d and 2005", first.orderKey(), first.Runs[0].Vals[5], key+int64(first.To-to))
	}

	// (b) The fifth snapshot is fresh, taking a page off the freelist,
	// where a recycled served page would be found.
	served := serve()
	covers, to := slices.Clone(first.Covers), first.To
	third := snapshot(nd, 0, 3000) // prunes the served snapshot
	if third == first || page(third) == page(first) {
		t.Fatal("a later snapshot was re-taken into one that was handed out")
	}
	if fourth := snapshot(nd, 0, 4000); fourth != third {
		t.Fatal("the snapshot after a share was not re-taken in place by the next")
	}
	served2 := serve()
	fifth := snapshot(nd, 0, 5000)
	if page(fifth) == page(first) || page(fifth) == page(third) {
		t.Fatal("a fresh snapshot got the page of one that was handed out")
	}
	for i := range served {
		if served[i] != 2000+float64(i) || served2[i] != 4000+float64(i) {
			t.Fatalf("served words %d = %v, %v after newer snapshots, want %v, %v", i, served[i], served2[i], 2000+float64(i), 4000+float64(i))
		}
	}
	if !slices.Equal(first.Covers, covers) || first.To != to {
		t.Fatalf("served snapshot now covers %v up to %d, was %v up to %d", first.Covers, first.To, covers, to)
	}

	// (c) Node 0's cached snapshot is shared, node 1's is not.
	serve()
	other := snapshot(s.Nodes[1], 1, 6000)
	idle := func(nd *Node) int { _, pages := nd.Mem.Arena().Idle(); return pages }
	before := []int{idle(s.Nodes[0]), idle(s.Nodes[1])}
	s.ReleaseWarm()
	for i, d := range []*storedDiff{fifth, other} {
		ar := s.Nodes[i].Mem.Arena()
		if got := idle(s.Nodes[i]); got != before[i]+1 {
			t.Fatalf("node %d's arena holds %d idle pages after release, want %d", i, got, before[i]+1)
		}
		if &ar.TakePage()[0] != page(d) {
			t.Fatalf("node %d's cached snapshot page did not go back to its arena", i)
		}
	}
}

// TestExchangeStorageReused pins the requester's storage for a diff
// exchange: it completes into a Pending from the node's free list, and
// applyReplies hands it back with its reply emptied and cleared. Over two
// fault rounds the second exchange reuses the first's Pending and its
// reply array, and after each round no reply slot points at a diff's
// arrays.
func TestExchangeStorageReused(t *testing.T) {
	s := testSystem(2, shm.PageWords)
	var pds []*host.Pending
	var arrays []*wire.Diff
	run(t, s, func(nd *Node) {
		for round := 0; round < 2; round++ {
			if nd.ID == 0 {
				w(nd, round, float64(round+1))
			}
			nd.Barrier(1)
			if nd.ID == 1 {
				fetches := nd.Stats.DiffFetches
				if got := r(nd, round); got != float64(round+1) {
					t.Errorf("round %d: read %v, want %v", round, got, round+1)
				}
				if nd.Stats.DiffFetches != fetches+1 || len(nd.pdFree) != 1 {
					t.Errorf("round %d: %d exchanges, %d free Pendings; want one of each", round, nd.Stats.DiffFetches-fetches, len(nd.pdFree))
				} else if pd := nd.pdFree[0]; cap(pd.Reply.Diffs) == 0 {
					t.Errorf("round %d: the returned reply never carried the diff", round)
				} else {
					slots := pd.Reply.Diffs[:cap(pd.Reply.Diffs)]
					for i, d := range slots {
						if d.Covers != nil || d.Runs != nil {
							t.Errorf("round %d: reply slot %d still points at a diff's arrays", round, i)
						}
					}
					pds, arrays = append(pds, pd), append(arrays, &slots[0])
				}
			}
			nd.Barrier(2)
		}
	})
	if len(pds) != 2 || pds[1] != pds[0] || arrays[1] != arrays[0] {
		t.Fatalf("the second exchange did not reuse the first's Pending and reply array (Pendings %v, arrays %v)", pds, arrays)
	}
}
