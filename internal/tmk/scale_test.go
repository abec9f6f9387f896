package tmk

import (
	"fmt"
	"testing"
	"time"

	"sdsm/internal/host"
	"sdsm/internal/model"
	"sdsm/internal/shm"
	"sdsm/internal/wire"
)

// TestScaleHotPageServeBalance pins serve delegation's reason to
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

// TestScaleDeadEndChaseRetries pins the virtual time of the Direct retry on
// the deterministic backend, the one fetch round no table reaches. Nodes 1
// and 2 write their own pages; node 0 then points both writers' delegations
// at each other for both pages, and Validates the two pages. Each writer
// redirects node 0 to the other, the chase hop finds no diffs there (the
// delegation already names node 0, so the hop is answered from a cache that
// lacks the page), both pages fall back, and the retry asks owners 1 and 2
// directly, one exchange at a time. Concurrent retry or hop exchanges would
// finish sooner and fail the time pinned here.
func TestScaleDeadEndChaseRetries(t *testing.T) {
	s := testSystem(3, 4*shm.PageWords)
	s.EnableScale()
	run(t, s, func(nd *Node) {
		if nd.ID > 0 {
			for a := nd.ID * shm.PageWords; a < nd.ID*shm.PageWords+8; a++ {
				w(nd, a, float64(a))
			}
		}
		nd.Barrier(1)
		if nd.ID == 0 {
			s.Nodes[1].dirNext[1], s.Nodes[2].dirNext[1] = 2, 0
			s.Nodes[2].dirNext[2], s.Nodes[1].dirNext[2] = 1, 0
			nd.Validate(AccRead, region(shm.PageWords, 3*shm.PageWords), false)
			for _, a := range []int{515, 1027} {
				if got := nd.Mem.Data()[a]; got != float64(a) {
					t.Errorf("word %d: read %v, want %d", a, got, a)
				}
			}
		}
		nd.Barrier(2)
	})
	_, ps := s.Stats()
	if got, want := s.MaxTime(), 2806464*time.Nanosecond; got != want {
		t.Errorf("MaxTime %v, want %v", got, want)
	}
	if got := s.Nodes[0].Stats.DiffFetches; got != 6 {
		t.Errorf("node 0 DiffFetches %d, want 6 (2 redirected, 2 chase hops, 2 Direct retries)", got)
	}
	if ps.DirRedirects != 2 || ps.DirHops != 2 || ps.DirFallbacks != 2 {
		t.Errorf("DirRedirects/DirHops/DirFallbacks %d/%d/%d, want 2/2/2", ps.DirRedirects, ps.DirHops, ps.DirFallbacks)
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
