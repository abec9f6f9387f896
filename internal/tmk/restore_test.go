package tmk

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"sdsm/internal/shm"
	"sdsm/internal/vm"
)

// pageImage is a deep copy of one page's whole state at a node: the page
// table entry — printed, with diffs reduced to their content keys and
// pending sorted, since a restore rebuilds the notices from the interval
// log in log order — and the vm half a wire.PageFrame carries beside it.
type pageImage struct {
	entry       string
	prot        vm.Prot
	words, twin []float64
}

func imageOf(nd *Node) []pageImage {
	out := make([]pageImage, len(nd.pages))
	for pg, e := range nd.pages {
		e.applied, e.pending = slices.Clone(e.applied), slices.Clone(e.pending)
		slices.SortFunc(e.pending, func(a, b notice) int { return cmp.Compare(a.owner, b.owner) })
		var chain []diffKey
		for _, d := range e.diffs {
			chain = append(chain, keyOf(d.Diff))
		}
		e.diffs = nil
		e.touched = false // the one bit no record carries: nothing has moved since a restore
		out[pg] = pageImage{
			entry: fmt.Sprintf("%+v chain %+v", e, chain),
			prot:  nd.Mem.Prot(pg), words: slices.Clone(nd.Mem.PageData(pg)), twin: slices.Clone(nd.Mem.TwinData(pg)),
		}
	}
	return out
}

// restoringSink is a ChainSink that, once node's record is stored, wipes the
// node and restores it from the chain on the spot — Put runs inside
// writeRecord, under the protocol token, so the node's state is exactly the
// one just recorded — and requires the rebuilt page table to equal the
// wiped one entry for entry, and the chain lengths the next record's kind
// is decided from to equal the node's.
type restoringSink struct {
	ChainSink
	t        *testing.T
	nd       *Node
	restores int
	chainMax int
	// What the wiped states held, so the test can require its program to
	// have produced every shape it claims: notices pending at a record, an
	// armed twin, a diff chain with several creators.
	pending, twins, creators int
}

func (s *restoringSink) Put(node int, epoch int32, full bool, rec []byte) error {
	if err := s.ChainSink.Put(node, epoch, full, rec); err != nil || node != s.nd.ID {
		return err
	}
	nd := s.nd
	want, wantDirty := imageOf(nd), nd.ndirty
	fullLen, incLen := nd.recFullLen, nd.recIncLen
	for pg, e := range nd.pages {
		s.pending += len(e.pending)
		if nd.Mem.HasTwin(pg) {
			s.twins++
		}
		s.creators = max(s.creators, len(e.diffs))
	}
	nd.wipe()
	if slices.ContainsFunc(nd.st.dirty, func(w uint64) bool { return w != 0 }) {
		s.t.Fatalf("epoch %d: wipe left dirty bits %x", epoch, nd.st.dirty)
	}
	for pg, e := range nd.pages {
		if e.dirty || e.noTwin || e.touched || e.lastDiffed != 0 || len(e.diffs) != 0 || len(e.pending) != 0 ||
			slices.ContainsFunc(e.applied, func(x int32) bool { return x != 0 }) || len(e.applied) != len(nd.vc) {
			s.t.Fatalf("epoch %d: wipe left page %d at %+v", epoch, pg, e)
		}
	}
	nd.recFullLen, nd.recIncLen = -1, -1 // restore takes both back from the chain
	nd.restore()
	s.restores++
	if nd.recFullLen != fullLen || nd.recIncLen != incLen {
		s.t.Errorf("epoch %d: restored chain lengths %d full, %d incremental; recorded %d, %d",
			epoch, nd.recFullLen, nd.recIncLen, fullLen, incLen)
	}
	s.chainMax = max(s.chainMax, len(s.Chains[node]))
	if nd.ndirty != wantDirty {
		s.t.Errorf("epoch %d: restored ndirty %d, was %d", epoch, nd.ndirty, wantDirty)
	}
	for pg, e := range nd.pages {
		if bit := nd.st.dirty[pg/64]>>(pg%64)&1 == 1; bit != e.dirty {
			s.t.Errorf("epoch %d: restored page %d dirty %v, its bit %v", epoch, pg, e.dirty, bit)
		}
	}
	for pg, got := range imageOf(nd) {
		w := want[pg]
		if got.entry != w.entry || got.prot != w.prot {
			s.t.Errorf("epoch %d (full=%v) page %d: restored\n %s prot %v\nrecorded from\n %s prot %v", epoch, full, pg, got.entry, got.prot, w.entry, w.prot)
		}
		if !slices.Equal(got.words, w.words) || !slices.Equal(got.twin, w.twin) {
			s.t.Errorf("epoch %d (full=%v) page %d: restored contents or twin differ (twin %d words, was %d)", epoch, full, pg, len(got.twin), len(w.twin))
		}
	}
	return nil
}

// TestRestoreRebuildsPageTable checks restore at the level it works at — a
// page table entry and its vm half — where the recovery matrices see it only
// through end-of-run checksums. Four nodes share one falsely shared page
// (every node writes its own quarter, so every copy holds pending notices
// and a multi-creator diff chain) and own one WRITE_ALL page each (whole
// snapshots, pruned chains), read a neighbour's page late (notices that stay
// pending across records), and node 2 is wiped and restored at every one of
// its records: full ones, and chains of a full record and up to three
// incremental ones.
func TestRestoreRebuildsPageTable(t *testing.T) {
	const n, epochs = 4, 8
	s := testSystem(n, (1+n)*shm.PageWords)
	sink := &restoringSink{t: t, nd: s.Nodes[2]}
	s.EnableRecovery(RecoveryConfig{Sink: sink})
	quarter := shm.PageWords / n
	own := func(id int) shm.Region { return shm.Region{Lo: (1 + id) * shm.PageWords, Hi: (2 + id) * shm.PageWords} }
	run(t, s, func(nd *Node) {
		for it := 1; it <= epochs; it++ {
			w(nd, nd.ID*quarter+it, float64(100*nd.ID+it))
			nd.Validate(AccWriteAll, []shm.Region{own(nd.ID)}, false)
			for a := own(nd.ID).Lo; a < own(nd.ID).Hi; a++ {
				nd.Mem.Data()[a] = float64(1000*nd.ID + it)
			}
			nd.Barrier(1)
			if got := r(nd, (nd.ID+1)%n*quarter+it); got != float64(100*((nd.ID+1)%n)+it) {
				panic(fmt.Sprintf("node %d epoch %d: neighbour's quarter reads %v", nd.ID, it, got))
			}
			if it%3 == 0 { // otherwise the neighbour's page stays invalid, its notices pending
				if got := r(nd, own((nd.ID+1)%n).Lo+it); got != float64(1000*((nd.ID+1)%n)+it) {
					panic(fmt.Sprintf("node %d epoch %d: neighbour's page reads %v", nd.ID, it, got))
				}
			}
			nd.Barrier(2)
		}
	})
	if sink.restores != 2*epochs || sink.chainMax != 4 {
		t.Fatalf("%d restores, longest chain %d records; want %d and 4", sink.restores, sink.chainMax, 2*epochs)
	}
	if sink.pending == 0 || sink.twins == 0 || sink.creators < n {
		t.Fatalf("the wiped states held %d pending notices, %d twins, chains of at most %d diffs: the program no longer exercises restore",
			sink.pending, sink.twins, sink.creators)
	}
}
