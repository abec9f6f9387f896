package vm

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"sdsm/internal/host"
	"sdsm/internal/model"
	"sdsm/internal/shm"
	"sdsm/internal/sim"
	"sdsm/internal/wire"
)

// grantAll upgrades any faulting page to the access requested.
type grantAll struct{ m *Mem }

func (h *grantAll) Fault(p host.Proc, page int, acc Access) {
	if acc == Read {
		h.m.SetProt(p, page, ReadOnly)
	} else {
		h.m.SetProt(p, page, ReadWrite)
	}
}

// runOne executes body on a single simulated processor.
func runOne(t *testing.T, body func(p host.Proc)) {
	t.Helper()
	e := sim.NewEngine(1)
	if err := e.Run(body); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func newMem(words int) *Mem {
	m := New(0, words, model.SP2(), nil)
	m.handler = &grantAll{m}
	return m
}

func TestEnsureReadFaultsOncePerPage(t *testing.T) {
	m := newMem(4 * shm.PageWords)
	runOne(t, func(p host.Proc) {
		m.EnsureRead(p, shm.Region{Lo: 0, Hi: 3 * shm.PageWords})
		if m.Counters.ReadFaults != 3 {
			t.Errorf("read faults = %d, want 3", m.Counters.ReadFaults)
		}
		m.EnsureRead(p, shm.Region{Lo: 0, Hi: 3 * shm.PageWords})
		if m.Counters.ReadFaults != 3 {
			t.Errorf("second EnsureRead re-faulted: %d", m.Counters.ReadFaults)
		}
	})
}

func TestWriteFaultOnReadOnly(t *testing.T) {
	m := newMem(2 * shm.PageWords)
	runOne(t, func(p host.Proc) {
		m.EnsureRead(p, shm.Region{Lo: 0, Hi: 10})
		m.EnsureWrite(p, shm.Region{Lo: 0, Hi: 10})
		if m.Counters.WriteFaults != 1 {
			t.Errorf("write faults = %d, want 1", m.Counters.WriteFaults)
		}
		if m.Prot(0) != ReadWrite {
			t.Errorf("prot = %v", m.Prot(0))
		}
	})
}

func TestProtOpChargesTime(t *testing.T) {
	m := newMem(2 * shm.PageWords)
	costs := model.SP2()
	runOne(t, func(p host.Proc) {
		before := p.Now()
		m.SetProt(p, 0, ReadWrite)
		elapsed := p.Now() - before
		want := costs.ProtOp(2)
		if elapsed != want {
			t.Errorf("prot op charged %v, want %v", elapsed, want)
		}
		before = p.Now()
		m.SetProt(p, 0, ReadWrite) // no change: free
		if p.Now() != before {
			t.Error("idempotent SetProt should be free")
		}
	})
}

func TestProtOpCostSaturates(t *testing.T) {
	costs := model.SP2()
	atCap := costs.ProtOp(costs.ProtCap)
	if costs.ProtOp(costs.ProtCap*10) != atCap {
		t.Fatal("protection cost must saturate at ProtCap")
	}
	if atCap < 700*time.Microsecond || atCap > 900*time.Microsecond {
		t.Fatalf("cost at 2000 pages = %v, paper says ~800µs", atCap)
	}
	if costs.ProtOp(0) != 18*time.Microsecond {
		t.Fatalf("minimum cost = %v, paper says 18µs", costs.ProtOp(0))
	}
}

func TestTwinAndDiff(t *testing.T) {
	m := newMem(shm.PageWords)
	runOne(t, func(p host.Proc) {
		d := m.Data()
		d[3], d[4], d[10] = 1, 2, 3
		m.MakeTwin(p, 0)
		d[4] = 99           // modify one twinned word
		d[20], d[21] = 5, 6 // and a fresh run
		runs := m.DiffAgainstTwin(p, 0)
		if len(runs) != 2 {
			t.Fatalf("runs = %+v, want 2 runs", runs)
		}
		if runs[0].Off != 4 || len(runs[0].Vals) != 1 || runs[0].Vals[0] != 99 {
			t.Fatalf("run0 = %+v", runs[0])
		}
		if runs[1].Off != 20 || len(runs[1].Vals) != 2 {
			t.Fatalf("run1 = %+v", runs[1])
		}
		if m.HasTwin(0) {
			t.Fatal("diff must consume the twin")
		}
	})
}

// A diff's runs are carved from one buffer, each capped at its own length:
// an append to a run must not reach the next run's words, and the values
// must not move when the page is written again or the recycled twin is
// taken again and overwritten.
func TestDiffRunsOwnTheirValues(t *testing.T) {
	m := newMem(shm.PageWords)
	runOne(t, func(p host.Proc) {
		d := m.PageData(0)
		m.MakeTwin(p, 0)
		want := map[int32][]float64{3: {1}, 10: {2, 3}, 100: {4, 5, 6}, 511: {7}}
		for off, vals := range want {
			copy(d[off:], vals)
		}
		runs := m.DiffAgainstTwin(p, 0)
		if len(runs) != len(want) || cap(runs) != len(runs) {
			t.Fatalf("runs = %+v (cap %d), want %d exactly", runs, cap(runs), len(want))
		}
		for _, r := range runs {
			if cap(r.Vals) != len(r.Vals) {
				t.Fatalf("run at %d has %d values and capacity %d: an append would write into the next run", r.Off, len(r.Vals), cap(r.Vals))
			}
			_ = append(r.Vals, -1)
		}
		m.MakeTwin(p, 0) // takes the page the diff just recycled
		for i := range d {
			d[i], m.TwinData(0)[i] = -2, -3
		}
		for _, r := range runs {
			if !slices.Equal(want[r.Off], r.Vals) {
				t.Fatalf("run at %d = %v after later writes, want %v", r.Off, r.Vals, want[r.Off])
			}
		}
	})
}

func TestApplyRunsUpdatesTwin(t *testing.T) {
	// Applying a remote diff to a page we are also writing must update the
	// twin too, so our own later diff does not re-ship the remote's words.
	m := newMem(shm.PageWords)
	runOne(t, func(p host.Proc) {
		m.MakeTwin(p, 0)
		m.ApplyRuns(p, 0, []Run{{Off: 7, Vals: []float64{42}}})
		m.Data()[100] = 1 // our own write
		runs := m.DiffAgainstTwin(p, 0)
		if len(runs) != 1 || runs[0].Off != 100 {
			t.Fatalf("diff re-shipped applied words: %+v", runs)
		}
	})
}

func TestDiffRoundTripProperty(t *testing.T) {
	// Property: for random modifications, diff(twin, page) applied to the
	// twin reconstructs the page exactly — both handed over in process and
	// carried through the wire codec, with no conversion in between: what
	// DiffAgainstTwin returns is what a frame carries and ApplyRuns takes.
	f := func(mods []struct {
		Off uint16
		Val float64
	}) bool {
		m := newMem(shm.PageWords)
		ok := true
		e := sim.NewEngine(1)
		err := e.Run(func(p host.Proc) {
			orig := make([]float64, shm.PageWords)
			for i := range orig {
				orig[i] = float64(i)
			}
			copy(m.Data(), orig)
			m.MakeTwin(p, 0)
			for _, mod := range mods {
				m.Data()[int(mod.Off)%shm.PageWords] = mod.Val
			}
			want := append([]float64(nil), m.PageData(0)...)
			runs := m.DiffAgainstTwin(p, 0)

			frame, err := wire.AppendFrame(nil, &wire.Frame{
				Kind: wire.FReply, Payload: wire.DiffReply{Diffs: []wire.Diff{{To: 1, Runs: runs}}},
			})
			if err != nil {
				t.Fatalf("encoding the diff: %v", err)
			}
			f, _, err := wire.ParseFrame(frame)
			if err != nil {
				t.Fatalf("decoding the diff: %v", err)
			}
			decoded := f.Payload.(*wire.DiffReply).Diffs[0].Runs

			// Reconstruct from the original plus runs.
			for _, rs := range [][]Run{runs, decoded} {
				m2 := newMem(shm.PageWords)
				copy(m2.Data(), orig)
				m2.ApplyRuns(p, 0, rs)
				for i := range want {
					if m2.Data()[i] != want[i] {
						ok = false
						return
					}
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRunsBytes(t *testing.T) {
	runs := []Run{{Off: 0, Vals: make([]float64, 3)}, {Off: 9, Vals: make([]float64, 1)}}
	if RunsBytes(runs) != 8*(1+3)+8*(1+1) {
		t.Fatalf("RunsBytes = %d", RunsBytes(runs))
	}
	if RunsWords(runs) != 4 {
		t.Fatalf("RunsWords = %d", RunsWords(runs))
	}
}

func TestWholePageRuns(t *testing.T) {
	m := newMem(shm.PageWords)
	runOne(t, func(p host.Proc) {
		m.Data()[0] = 7
		runs := m.WholePageRuns(p, 0)
		if len(runs) != 1 || len(runs[0].Vals) != shm.PageWords || runs[0].Vals[0] != 7 {
			t.Fatalf("whole page runs wrong: %d runs", len(runs))
		}
	})
}

func TestFaultChargesBaseCost(t *testing.T) {
	m := newMem(shm.PageWords)
	costs := model.SP2()
	runOne(t, func(p host.Proc) {
		before := p.Now()
		m.EnsureRead(p, shm.Region{Lo: 0, Hi: 1})
		got := p.Now() - before
		want := costs.PageFault + costs.ProtOp(1)
		if got != want {
			t.Errorf("fault charged %v, want %v", got, want)
		}
	})
}
