package adapt

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// These property tests pin the no-negotiation invariant the protocol
// layer relies on implicitly: detector state is a pure function of the
// observation stream's content, not of how the stream was assembled or
// relayed. Every replica that consumes the same global observations —
// with maps built in different insertion orders, reader lists in
// different permutations, and independent per-lock streams interleaved
// differently — must hold byte-identical state, because the protocol's
// send/receive schedules are derived from that state independently at
// each node.

// barrierObs is one epoch's raw observation in canonical form: ordered
// (page, writers) and (page, readers) lists the test permutes per replica
// before handing them to a Detector.
type barrierObs struct {
	writers map[int][]WriteExt
	readers map[int][]int
}

// buildEpoch assembles an Epoch from the observation with rng-driven
// insertion order and reader permutations. Writer lists keep their global
// order (they are relayed identically to every node); reader lists have
// no order contract.
func buildEpoch(rng *rand.Rand, obs barrierObs) Epoch {
	ep := Epoch{Writers: map[int][]WriteExt{}, Readers: map[int][]int{}}
	wpages := shuffledKeys(rng, obs.writers)
	for _, pg := range wpages {
		ep.Writers[pg] = append([]WriteExt(nil), obs.writers[pg]...)
	}
	rpages := shuffledKeys(rng, obs.readers)
	for _, pg := range rpages {
		rs := append([]int(nil), obs.readers[pg]...)
		rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		ep.Readers[pg] = rs
	}
	return ep
}

func shuffledKeys[V any](rng *rand.Rand, m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// TestBarrierDetectorDeterminism feeds the same random epoch stream to
// replicated detectors whose inputs are assembled in different orders and
// asserts byte-identical state after every epoch.
func TestBarrierDetectorDeterminism(t *testing.T) {
	const replicas = 5
	const nodes = 6
	const pages = 24
	rng := rand.New(rand.NewSource(1))
	digest := sha256.New()
	for trial := 0; trial < 40; trial++ {
		dets := make([]*Detector, replicas)
		rngs := make([]*rand.Rand, replicas)
		for i := range dets {
			dets[i] = New(Config{K: 1 + trial%4})
			rngs[i] = rand.New(rand.NewSource(int64(1000*trial + i)))
		}
		for epoch := 0; epoch < 30; epoch++ {
			obs := barrierObs{writers: map[int][]WriteExt{}, readers: map[int][]int{}}
			for pg := 0; pg < pages; pg++ {
				if rng.Intn(3) == 0 {
					nw := 1 + rng.Intn(2)
					var ws []WriteExt
					for len(ws) < nw {
						w := rng.Intn(nodes)
						if len(ws) > 0 && ws[len(ws)-1].Node == w {
							continue
						}
						ws = append(ws, WriteExt{Node: w, Lo: 0, Hi: 512})
					}
					if len(ws) == 2 && rng.Intn(2) == 0 {
						// Half the two-writer pages carry the disjoint
						// false-sharing shape so the split path is under the
						// same shuffling pressure as the whole-page paths.
						cut := 64 * (1 + rng.Intn(7))
						ws[0].Hi = cut
						ws[1].Lo = cut
					}
					obs.writers[pg] = ws
				}
				if rng.Intn(3) == 0 {
					seen := map[int]bool{}
					for n := rng.Intn(3); n >= 0; n-- {
						seen[rng.Intn(nodes)] = true
					}
					for r := range seen {
						obs.readers[pg] = append(obs.readers[pg], r)
					}
				}
			}
			for i, d := range dets {
				advance(t, d, buildEpoch(rngs[i], obs))
			}
			want := dets[0].Fingerprint()
			digest.Write([]byte(want))
			digest.Write(dets[0].Snapshot())
			for i := 1; i < replicas; i++ {
				if got := dets[i].Fingerprint(); got != want {
					t.Fatalf("trial %d epoch %d: replica %d state diverged:\n--- replica 0 ---\n%s\n--- replica %d ---\n%s",
						trial, epoch, i, want, i, got)
				}
			}
		}
	}
	// The stream is seeded, so replica 0's state after every epoch is a
	// constant. This digest of its Fingerprint and Snapshot bytes was taken
	// at 277804d, before the observation went dense and reads stopped being
	// attributed machine-wide ahead of all writes: it pins the detector's
	// semantics and snapshot format to that commit's, which comparing the
	// two entry points of one implementation (advance) cannot.
	const parent = "1f2094b41d08fbdf291178ac3d363c08af54917601b249cd3369742ceb03cb3d"
	if got := fmt.Sprintf("%x", digest.Sum(nil)); got != parent {
		t.Fatalf("detector state digest %s, want %s (the 277804d detector's)", got, parent)
	}
}

// lockEvent is one serialized event on one lock's stream.
type lockEvent struct {
	lock     int
	grant    bool
	from, to int
	fetched  []int
}

// TestLockDetectorDeterminism generates independent serialized streams
// for several locks and feeds them to replicas under different
// interleavings (lock-major, round-robin, random) with the fetch lists
// permuted per replica. Each lock's detector state must be byte-identical
// everywhere: the per-lock stream alone determines it.
func TestLockDetectorDeterminism(t *testing.T) {
	const locks = 4
	const nodes = 5
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		streams := make([][]lockEvent, locks)
		for l := range streams {
			holder := rng.Intn(nodes)
			for cyc := 0; cyc < 25; cyc++ {
				var next int
				if rng.Intn(4) == 0 {
					next = rng.Intn(nodes) // occasional rotation break
				} else {
					next = (holder + 1) % nodes
				}
				streams[l] = append(streams[l], lockEvent{lock: l, grant: true, from: holder, to: next})
				var fetched []int
				for pg := 0; pg < 4; pg++ {
					if rng.Intn(2) == 0 {
						fetched = append(fetched, 100*l+pg)
					}
				}
				streams[l] = append(streams[l], lockEvent{lock: l, fetched: fetched})
				holder = next
			}
		}
		interleave := func(mode int, rng *rand.Rand) []lockEvent {
			idx := make([]int, locks)
			var out []lockEvent
			switch mode {
			case 0: // lock-major
				for l := 0; l < locks; l++ {
					out = append(out, streams[l]...)
				}
			case 1: // round-robin pairs
				for {
					done := true
					for l := 0; l < locks; l++ {
						if idx[l] < len(streams[l]) {
							out = append(out, streams[l][idx[l]], streams[l][idx[l]+1])
							idx[l] += 2
							done = false
						}
					}
					if done {
						break
					}
				}
			default: // random pairs
				for {
					var live []int
					for l := 0; l < locks; l++ {
						if idx[l] < len(streams[l]) {
							live = append(live, l)
						}
					}
					if len(live) == 0 {
						break
					}
					l := live[rng.Intn(len(live))]
					out = append(out, streams[l][idx[l]], streams[l][idx[l]+1])
					idx[l] += 2
				}
			}
			return out
		}
		var fingerprints []string
		for replica := 0; replica < 4; replica++ {
			rrng := rand.New(rand.NewSource(int64(2000*trial + replica)))
			dets := make([]*LockDetector, locks)
			for l := range dets {
				dets[l] = NewLock(Config{K: 2, ReprobeM: 3})
			}
			mode := replica
			if mode > 2 {
				mode = 2
			}
			for _, ev := range interleave(mode, rrng) {
				if ev.grant {
					dets[ev.lock].Grant(ev.from, ev.to)
					continue
				}
				f := append([]int(nil), ev.fetched...)
				rrng.Shuffle(len(f), func(i, j int) { f[i], f[j] = f[j], f[i] })
				dets[ev.lock].Hold(f)
			}
			var fp string
			for l := 0; l < locks; l++ {
				fp += fmt.Sprintf("lock %d:\n%s", l, dets[l].Fingerprint())
			}
			fingerprints = append(fingerprints, fp)
		}
		for i := 1; i < len(fingerprints); i++ {
			if fingerprints[i] != fingerprints[0] {
				t.Fatalf("trial %d: replica %d lock-detector state diverged:\n--- replica 0 ---\n%s\n--- replica %d ---\n%s",
					trial, i, fingerprints[0], i, fingerprints[i])
			}
		}
	}
}

// advance is how every barrier-detector test feeds an epoch, so that each
// suite exercises both entry points: d takes the epoch through the
// Advance(Epoch) map adapter while a twin — cloned from d's snapshot just
// before — takes the same observation through AdvancePages in the sorted
// form, built here independently of the adapter (and with each reader list
// reversed: reader order carries no meaning). The two must then agree on
// Fingerprint and on Snapshot bytes.
func advance(t testing.TB, d *Detector, ep Epoch) {
	t.Helper()
	twin := New(d.cfg)
	if err := twin.RestoreSnapshot(d.Snapshot()); err != nil {
		t.Fatalf("cloning the detector: %v", err)
	}
	pages := map[int]bool{}
	for pg := range ep.Writers {
		pages[pg] = true
	}
	for pg := range ep.Readers {
		pages[pg] = true
	}
	var obs []PageObs
	for pg := range pages {
		rs := slices.Clone(ep.Readers[pg])
		slices.Reverse(rs)
		obs = append(obs, PageObs{Page: pg, Writers: ep.Writers[pg], Readers: rs})
	}
	sort.Slice(obs, func(i, j int) bool { return obs[i].Page < obs[j].Page })
	d.Advance(ep)
	twin.AdvancePages(obs)
	if got, want := twin.Fingerprint(), d.Fingerprint(); got != want {
		t.Fatalf("entry points diverged:\n--- AdvancePages ---\n%s\n--- Advance(Epoch) ---\n%s", got, want)
	}
	if !bytes.Equal(twin.Snapshot(), d.Snapshot()) {
		t.Fatal("entry points agree on Fingerprint but not on Snapshot bytes")
	}
}
