package mp

import (
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
		if r.p.Now() != 5*time.Millisecond {
			t.Errorf("scaled time = %v, want 5ms", r.p.Now())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSingleRankCollectivesNoMessages(t *testing.T) {
	w := NewWorld(1, model.SP2())
	err := w.Run(func(r *Rank) {
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
	})
	if err != nil {
		t.Fatal(err)
	}
}
