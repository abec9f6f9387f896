package tmk

import (
	"fmt"
	"testing"
	"time"

	"sdsm/internal/adapt"
	"sdsm/internal/obs"
	"sdsm/internal/shm"
)

// xorshift is a tiny deterministic PRNG so the stress runs are seeded and
// reproducible without math/rand.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

func (x *xorshift) intn(n int) int { return int(x.next() % uint64(n)) }

// TestRandomizedBarrierPrograms runs randomly generated barrier-structured
// SPMD programs against a golden shared-memory model, once per protocol
// mode. Each round, every node writes a random set of regions from a
// disjoint per-node partition of the round (so the program is race-free),
// with random Validate usage, then read-modify-writes a word of one shared
// page under the lock that guards it (migratory data: every node, every
// round); after the barrier every node reads random words and checks them
// against the golden memory. Every mode must leave, at every node, the
// memory image the golden model and the base run have — the modes change
// who ships which diff when, never content — and tracing must not move a
// virtual time or a protocol counter.
func TestRandomizedBarrierPrograms(t *testing.T) {
	const (
		n        = 4
		pages    = 8
		rounds   = 12
		words    = pages * shm.PageWords // the barrier-phase partition space
		lockBase = words                 // one more page: the lock-guarded words
		total    = words + shm.PageWords
	)
	for seed := 1; seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			// Pre-generate the whole schedule deterministically so every
			// node, every mode and the golden model agree. golden[rd] is the
			// memory image after round rd.
			rng := xorshift(seed * 2654435761)
			var schedule [rounds][]randWrite
			var updates [rounds][n]randUpdate
			var golden [rounds][]float64
			mem := make([]float64, total)
			for rd := 0; rd < rounds; rd++ {
				// Slice the address space into n disjoint chunks this round,
				// rotating so page ownership migrates between rounds.
				chunk := words / n
				rot := rng.intn(n)
				for node := 0; node < n; node++ {
					owner := (node + rot) % n
					base := owner * chunk
					for k := 0; k < 1+rng.intn(3); k++ {
						lo := base + rng.intn(chunk-1)
						hi := lo + 1 + rng.intn(min(chunk-(lo-base)-1, 700))
						schedule[rd] = append(schedule[rd], randWrite{
							node: node, lo: lo, hi: hi,
							val: float64(rd*1000 + node*100 + k),
							how: rng.intn(4),
						})
					}
					// Lock l guards words [64l, 64l+4) of the shared page; the
					// increments are small integers, so the sum is exact in
					// whatever order the lock chain serializes them.
					l := rng.intn(2)
					updates[rd][node] = randUpdate{lock: l, addr: lockBase + 64*l + rng.intn(4), val: float64(1 + rng.intn(9))}
				}
				// Later writes of a round only overlap within one node, which
				// executes them in schedule order.
				for _, wr := range schedule[rd] {
					for a := wr.lo; a < wr.hi; a++ {
						mem[a] = wr.val
					}
				}
				for _, u := range updates[rd] {
					mem[u.addr] += u.val
				}
				golden[rd] = append([]float64(nil), mem...)
			}
			fault := &Fault{Rank: rng.intn(n), Epoch: 1 + rng.intn(2*rounds)}

			body := func(nd *Node) {
				for rd := 0; rd < rounds; rd++ {
					for _, wr := range schedule[rd] {
						if wr.node != nd.ID {
							continue
						}
						reg := []shm.Region{{Lo: wr.lo, Hi: wr.hi}}
						switch wr.how {
						case 1:
							nd.Validate(AccWrite, reg, false)
						case 2:
							nd.Validate(AccWriteAll, reg, false)
						case 3:
							nd.Validate(AccReadWrite, reg, true)
						}
						nd.Mem.EnsureWrite(nd.p, reg[0])
						d := nd.Mem.Data()
						for a := wr.lo; a < wr.hi; a++ {
							d[a] = wr.val
						}
					}
					u := updates[rd][nd.ID]
					nd.Acquire(u.lock)
					w(nd, u.addr, r(nd, u.addr)+u.val)
					nd.Release(u.lock)
					nd.p.Advance(time.Duration(nd.ID+1) * 53 * time.Microsecond)
					nd.Barrier(1)
					// Read back random words written up to this round.
					probe := xorshift(uint64(seed*1_000_003 + rd*7919 + nd.ID))
					for k := 0; k < 32; k++ {
						a := probe.intn(total)
						if got := r(nd, a); got != golden[rd][a] {
							t.Errorf("round %d node %d word %d: got %v want %v", rd, nd.ID, a, got, golden[rd][a])
							return
						}
					}
					nd.Barrier(2)
				}
				nd.Mem.EnsureRead(nd.p, shm.Region{Lo: 0, Hi: total}) // the final image, whole
			}

			modes := []struct {
				name string
				arm  func(s *System)
			}{
				{"base", func(*System) {}},
				{"adapt", func(s *System) { s.EnableAdapt(adapt.Config{K: 2}) }},
				{"scale", func(s *System) { s.EnableScale() }},
				{"adapt+scale", func(s *System) { s.EnableAdapt(adapt.Config{K: 2}); s.EnableScale() }},
				{"recovery", func(s *System) { s.EnableRecovery(RecoveryConfig{Fault: fault}) }},
				{"trace", func(s *System) { s.EnableTrace(obs.NewMachine(n, 0, false)) }},
			}
			var base *System
			for _, m := range modes {
				s := testSystem(n, total)
				m.arm(s)
				run(t, s, body)
				if t.Failed() {
					t.Fatalf("mode %s: read-back diverged from the golden model", m.name)
				}
				if base == nil {
					base = s
				}
				for _, nd := range s.Nodes {
					img, want := nd.Mem.Data()[:total], base.Nodes[nd.ID].Mem.Data()[:total]
					for a := range img {
						if img[a] != golden[rounds-1][a] || img[a] != want[a] {
							t.Fatalf("mode %s node %d word %d: final image %v, golden %v, base run %v",
								m.name, nd.ID, a, img[a], golden[rounds-1][a], want[a])
						}
					}
				}
				switch m.name {
				case "recovery":
					if rs := s.Nodes[fault.Rank].RecStats; rs.Failures != 1 || rs.Restores != 1 {
						t.Fatalf("fault %+v never fired: %+v", *fault, rs)
					}
				case "trace":
					_, got := s.Stats()
					_, want := base.Stats()
					if got != want || s.MaxTime() != base.MaxTime() {
						t.Fatalf("tracing is visible: time %v vs %v untraced, stats\n%+v\nvs\n%+v",
							s.MaxTime(), base.MaxTime(), got, want)
					}
				}
			}
		})
	}
}

// randWrite is one generated write of the stress schedule.
type randWrite struct {
	node   int
	lo, hi int
	val    float64
	how    int // 0 plain, 1 validate WRITE, 2 validate WRITE_ALL, 3 async READ&WRITE
}

// randUpdate is one node's lock-guarded increment of a round: addr += val
// while holding lock.
type randUpdate struct {
	lock, addr int
	val        float64
}

// goldenAfter replays the schedule prefix into a fresh memory image.
func goldenAfter(schedule [][]randWrite, words int) []float64 {
	mem := make([]float64, words)
	for _, rd := range schedule {
		for _, w := range rd {
			for a := w.lo; a < w.hi; a++ {
				mem[a] = w.val
			}
		}
	}
	return mem
}
