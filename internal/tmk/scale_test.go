package tmk

import (
	"fmt"
	"testing"
	"time"

	"sdsm/internal/cluster"
	"sdsm/internal/host"
	"sdsm/internal/model"
	"sdsm/internal/shm"
	"sdsm/internal/wire"
)

// TestScaleHotPageServeBalance pins the ownership directory's reason to
// exist: a page written by one node and read by 63 turns the writer into
// a serve hot spot under the base protocol, while scale mode spreads the
// serving across the reader chain (each reader is served by the previous
// one and the writer answers one payload plus cheap redirects). The
// acceptance bound is the scaling experiment's: no node answers more
// than twice the machine-mean number of diff requests.
func TestScaleHotPageServeBalance(t *testing.T) {
	const n = 64
	const epochs = 4
	runCase := func(scale bool) *System {
		s := testSystem(n, shm.PageWords)
		if scale {
			s.EnableScale()
		}
		run(t, s, func(nd *Node) {
			for e := 0; e < epochs; e++ {
				if nd.ID == e%8 { // rotate the writer: ownership must migrate
					w(nd, 8*e, float64(100*e+1))
				}
				nd.Barrier(1)
				if got := r(nd, 8*e); got != float64(100*e+1) {
					t.Errorf("epoch %d node %d: read %v, want %v", e, nd.ID, got, float64(100*e+1))
				}
				nd.Barrier(2)
			}
		})
		return s
	}

	base := runCase(false)
	bmax, bmean := base.ServeBalance()
	if float64(bmax) < 4*bmean {
		t.Fatalf("base protocol is not a hot spot (max %d, mean %.1f); workload no longer tests the directory", bmax, bmean)
	}

	sc := runCase(true)
	smax, smean := sc.ServeBalance()
	if smean == 0 {
		t.Fatal("scale run served no diffs")
	}
	if float64(smax) > 2*smean {
		t.Fatalf("scale mode serve balance %d/%.1f = %.2f exceeds the 2x bound", smax, smean, float64(smax)/smean)
	}
	_, ps := sc.Stats()
	if ps.DirRedirects == 0 {
		t.Fatal("scale run issued no directory redirects; the hot page was not delegated")
	}
}

// scaleHintProgram is the rotating-writer workload of the determinism
// tests: each round every node writes its rotated page, the machine
// barriers, every node reads a word of the next page, and the machine
// barriers again. Ownership of every page migrates every round.
func scaleHintProgram(n, pages, rounds int) func(nd *Node) {
	return func(nd *Node) {
		for rd := 0; rd < rounds; rd++ {
			pg := (nd.ID + rd) % pages
			w(nd, pg*shm.PageWords+rd, float64(rd*1000+nd.ID))
			nd.Barrier(1)
			rpg := (nd.ID + rd + 1) % pages
			owner := ((rpg-rd)%pages + pages) % pages
			if got := r(nd, rpg*shm.PageWords+rd); got != float64(rd*1000+owner) {
				panic(fmt.Sprintf("round %d node %d page %d: read %v, want %v",
					rd, nd.ID, rpg, got, float64(rd*1000+owner)))
			}
			nd.Barrier(2)
		}
	}
}

// ownerHints snapshots every node's post-run probable-owner hints.
func ownerHints(s *System) [][]int {
	out := make([][]int, len(s.Nodes))
	for i, nd := range s.Nodes {
		hints := make([]int, nd.Mem.Pages())
		for pg := range hints {
			hints[pg] = nd.OwnerHint(pg)
		}
		out[i] = hints
	}
	return out
}

// TestScaleDirectoryDeterminism asserts the replicated-decision rule of
// DESIGN.md's invariant four for the directory: after a barrier,
// resetDirectory has rebuilt every node's hints from the merged notice
// set alone, so (a) all nodes agree, (b) a rerun agrees bit for bit, and
// (c) the concurrent real backend — whose mid-epoch serve order differs
// freely — lands on the same post-barrier directory as the sim backend.
func TestScaleDirectoryDeterminism(t *testing.T) {
	const n, pages, rounds = 8, 8, 5
	words := pages * shm.PageWords

	runSim := func() [][]int {
		s := testSystem(n, words)
		s.EnableScale()
		run(t, s, scaleHintProgram(n, pages, rounds))
		return ownerHints(s)
	}
	simHints := runSim()
	for id, hints := range simHints {
		for pg, h := range hints {
			if h != simHints[0][pg] {
				t.Fatalf("sim: node %d hint for page %d = %d, node 0 says %d", id, pg, h, simHints[0][pg])
			}
			// Every page was written every round, so no hint may be unset.
			// (The winner need not be the literal last writer: chain
			// continuity lets later intervals cover a page without new
			// content, and any holder of the full chain can serve it —
			// the invariant under test is agreement, not identity.)
			if h < 0 || h >= n {
				t.Fatalf("sim: page %d hint = %d, want a node id", pg, h)
			}
		}
	}
	if again := runSim(); fmt.Sprint(again) != fmt.Sprint(simHints) {
		t.Fatalf("sim rerun produced different hints:\n%v\n%v", again, simHints)
	}

	for trial := 0; trial < 3; trial++ {
		h := host.NewReal(n)
		nw := cluster.New(h, model.SP2())
		layout := shm.NewLayout()
		layout.Alloc("mem", words)
		s := New(h, nw, layout)
		s.EnableScale()
		run(t, s, scaleHintProgram(n, pages, rounds))
		if got := ownerHints(s); fmt.Sprint(got) != fmt.Sprint(simHints) {
			t.Fatalf("real backend trial %d: post-barrier hints differ from sim:\n%v\n%v", trial, got, simHints)
		}
	}
}

// TestScaleRandomMigrationNet is the randomized ownership-migration
// stress: 16 ranks on the wire backend under scale mode, with a seeded
// random schedule whose per-round disjoint write partitions rotate so
// page ownership keeps moving. Every node's reads are checked against a
// golden replay, and the directory's chase accounting must stay bounded
// (every forwarding hop consumes at least one issued redirect). Run
// under -race in CI.
func TestScaleRandomMigrationNet(t *testing.T) {
	const (
		n      = 16
		pages  = 8
		rounds = 5
	)
	words := pages * shm.PageWords
	trials := 3
	if testing.Short() {
		trials = 1
	}
	for seed := 1; seed <= trials; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := xorshift(seed * 968665207)
			var schedule [rounds][]randWrite
			chunk := words / n
			for rd := 0; rd < rounds; rd++ {
				rot := rng.intn(n)
				for node := 0; node < n; node++ {
					base := ((node + rot) % n) * chunk
					for k := 0; k < 1+rng.intn(2); k++ {
						lo := base + rng.intn(chunk-1)
						hi := lo + 1 + rng.intn(min(chunk-(lo-base)-1, 300))
						schedule[rd] = append(schedule[rd], randWrite{
							node: node, lo: lo, hi: hi,
							val: float64(rd*1000 + node*10 + k),
						})
					}
				}
			}

			body := func(nd *Node) {
				for rd := 0; rd < rounds; rd++ {
					for _, wr := range schedule[rd] {
						if wr.node != nd.ID {
							continue
						}
						reg := shm.Region{Lo: wr.lo, Hi: wr.hi}
						nd.Mem.EnsureWrite(nd.Proc(), reg)
						d := nd.Mem.Data()
						for a := wr.lo; a < wr.hi; a++ {
							d[a] = wr.val
						}
					}
					nd.Proc().Advance(time.Duration(nd.ID+1) * 31 * time.Microsecond)
					nd.Barrier(1)
					probe := xorshift(uint64(seed*7_368_787 + rd*104_729 + nd.ID))
					goldenAt := goldenAfter(schedule[:rd+1], words)
					for k := 0; k < 24; k++ {
						a := probe.intn(words)
						nd.Mem.EnsureRead(nd.Proc(), shm.Region{Lo: a, Hi: a + 1})
						if got := nd.Mem.Data()[a]; got != goldenAt[a] {
							t.Errorf("round %d node %d word %d: got %v want %v", rd, nd.ID, a, got, goldenAt[a])
							return
						}
					}
					nd.Barrier(2)
				}
			}

			nw, err := host.NewNet(n, model.SP2())
			if err != nil {
				t.Fatal(err)
			}
			layout := shm.NewLayout()
			layout.Alloc("mem", words)
			s := New(nw, nw, layout)
			s.EnableScale()
			err = s.Run(body)
			nw.Close()
			if err != nil {
				t.Fatal(err)
			}
			_, ps := s.Stats()
			if ps.DirHops > ps.DirRedirects {
				t.Fatalf("chase accounting out of bounds: %d hops > %d redirects issued", ps.DirHops, ps.DirRedirects)
			}
		})
	}
}

// TestChaseGuardOutOfRange pins the fetch router's defense in depth: a
// forwarding hint naming a rank outside the machine must be dropped to
// the Direct fallback, not turned into a request. The guard is
// exercised directly — redirect lists are wire values, so a corrupt hint
// can arrive however the local directory was initialized.
func TestChaseGuardOutOfRange(t *testing.T) {
	sys := testSystem(2, 4*shm.PageWords)
	sys.EnableScale()
	nd := sys.Nodes[0]
	// A pending notice for page 1 makes the chase consider it; the hint
	// names rank 99. The guard must skip it without issuing a request —
	// if it tried, the transport would be asked for a node the host does
	// not have and the test would die rather than fail gracefully.
	nd.pages[1].pending = []notice{{owner: 1, idx: 1}}
	before := nd.Stats.DirFallbacks
	nd.chaseRedirects([]wire.PageOwner{{Page: 1, Owner: 99}})
	if nd.Stats.DirFallbacks != before+1 {
		t.Errorf("out-of-range redirect: DirFallbacks %d, want %d (hint should fall back, not route)",
			nd.Stats.DirFallbacks, before+1)
	}
}
