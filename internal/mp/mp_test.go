package mp

import (
	"reflect"
	"testing"
	"time"

	"sdsm/internal/host"
	"sdsm/internal/model"
)

func TestSendRecvRoundRobin(t *testing.T) {
	w := NewWorld(4, model.SP2())
	err := w.Run(func(r *Rank) {
		next := (r.ID + 1) % r.N
		prev := (r.ID - 1 + r.N) % r.N
		r.Send(next, []float64{float64(r.ID)})
		got := r.Recv(prev)
		if got[0] != float64(prev) {
			t.Errorf("rank %d got %v from %d", r.ID, got[0], prev)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	w := NewWorld(5, model.SP2())
	err := w.Run(func(r *Rank) {
		data := []float64{0}
		if r.ID == 2 {
			data[0] = 42
		}
		out := r.Bcast(2, data)
		if out[0] != 42 {
			t.Errorf("rank %d: bcast value %v", r.ID, out[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdersPhases(t *testing.T) {
	w := NewWorld(4, model.SP2())
	var after [4]time.Duration
	var latest time.Duration
	err := w.Run(func(r *Rank) {
		r.Advance(time.Duration(r.ID+1) * time.Millisecond)
		if t := r.Now(); t > latest {
			latest = t
		}
		r.Barrier()
		after[r.ID] = r.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, at := range after {
		if at < 4*time.Millisecond {
			t.Errorf("rank %d left the barrier at %v, before the slowest arrival", i, at)
		}
	}
}

// TestBarrierAccounting pins what a barrier costs: every rank's departure
// clock and the machine's traffic counters after staggered arrivals on 2,
// 3 and 8 sim ranks. The values were recorded at the commit where the
// release was host.Mailbox.Broadcast; rank 0 now sends the releases
// itself, and charges and accounting must not have moved.
func TestBarrierAccounting(t *testing.T) {
	us := func(v ...float64) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x * float64(time.Microsecond))
		}
		return out
	}
	for _, c := range []struct {
		n      int
		clocks []time.Duration
	}{
		{2, us(2232.5, 2365)},
		{3, us(3282.5, 3365, 3415)},
		{8, us(8532.5, 8365, 8415, 8465, 8515, 8565, 8615, 8665)},
	} {
		w := NewWorld(c.n, model.SP2())
		clocks := make([]time.Duration, c.n)
		err := w.Run(func(r *Rank) {
			r.Advance(time.Duration(r.ID+1) * time.Millisecond)
			r.Barrier()
			clocks[r.ID] = r.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(clocks, c.clocks) {
			t.Errorf("n=%d: clocks %v, want %v", c.n, clocks, c.clocks)
		}
		// Rank 0 receives n-1 arrivals and sends n-1 releases, all empty.
		want := host.Stats{Msgs: 2 * int64(c.n-1)}
		if got := w.NW.Stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: stats %+v, want %+v", c.n, got, want)
		}
	}
}

func TestGather(t *testing.T) {
	w := NewWorld(3, model.SP2())
	err := w.Run(func(r *Rank) {
		parts := r.Gather(0, []float64{float64(r.ID * 10)})
		if r.ID != 0 {
			if parts != nil {
				t.Errorf("non-root got parts")
			}
			return
		}
		for i, p := range parts {
			if p[0] != float64(i*10) {
				t.Errorf("part %d = %v", i, p[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCostScale(t *testing.T) {
	w := NewWorld(1, model.SP2())
	err := w.Run(func(r *Rank) {
		r.SetCostScale(4)
		r.Advance(time.Millisecond)
		r.AdvanceFixed(time.Millisecond)
		if r.Now() != 5*time.Millisecond {
			t.Errorf("scaled time = %v, want 5ms", r.Now())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSingleRankCollectivesNoMessages(t *testing.T) {
	w := NewWorld(1, model.SP2())
	err := w.Run(func(r *Rank) {
		r.Barrier()
		r.Bcast(0, []float64{1})
		r.Gather(0, []float64{1})
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.NW.Stats().Msgs != 0 {
		t.Fatalf("single rank sent %d messages", w.NW.Stats().Msgs)
	}
}

// TestRealHostWorld runs the message-passing layer on the
// real-concurrency backend: ranks are goroutines, communication methods
// bracket protocol sections themselves, and rank data stays private, so
// the same programs run unmodified.
func TestRealHostWorld(t *testing.T) {
	w := NewWorldOn(host.NewReal(4), model.SP2())
	err := w.Run(func(r *Rank) {
		next := (r.ID + 1) % r.N
		prev := (r.ID - 1 + r.N) % r.N
		r.Send(next, []float64{float64(r.ID)})
		got := r.Recv(prev)
		if got[0] != float64(prev) {
			t.Errorf("rank %d got %v from %d", r.ID, got[0], prev)
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
