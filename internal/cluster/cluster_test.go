package cluster

import (
	"testing"
	"time"

	"sdsm/internal/host"
	"sdsm/internal/model"
	"sdsm/internal/sim"
)

const tagData host.Tag = 1

func TestSendRecvTiming(t *testing.T) {
	e := sim.NewEngine(2)
	nw := New(e, model.SP2())
	c := model.SP2()
	var recvAt time.Duration
	err := e.Run(func(p host.Proc) {
		if p.ID() == 0 {
			nw.Send(p, 1, tagData, "hello", 0)
		} else {
			m := nw.Recv(p, 0, tagData)
			if m.Payload.(string) != "hello" {
				t.Errorf("payload = %v", m.Payload)
			}
			recvAt = p.Now()
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := c.SendOverhead + c.WireLatency + c.RecvOverhead
	if recvAt != want {
		t.Fatalf("recv completed at %v, want %v", recvAt, want)
	}
}

func TestMinRoundTripMatchesPaper(t *testing.T) {
	// The paper: minimum roundtrip using send and receive for the smallest
	// message, including an interrupt, is 365 µs.
	e := sim.NewEngine(2)
	nw := New(e, model.SP2())
	var rt time.Duration
	err := e.Run(func(p host.Proc) {
		if p.ID() == 0 {
			start := p.Now()
			nw.Send(p, 1, tagData, nil, 0)
			nw.Recv(p, 1, tagData)
			rt = p.Now() - start
		} else {
			nw.Recv(p, 0, tagData)
			nw.Send(p, 0, tagData, nil, 0)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rt != 365*time.Microsecond {
		t.Fatalf("roundtrip = %v, want 365µs", rt)
	}
}

func TestBandwidthCharge(t *testing.T) {
	e := sim.NewEngine(2)
	costs := model.SP2()
	nw := New(e, costs)
	var recvAt time.Duration
	const bytes = 1 << 20
	err := e.Run(func(p host.Proc) {
		if p.ID() == 0 {
			nw.Send(p, 1, tagData, nil, bytes)
		} else {
			nw.Recv(p, 0, tagData)
			recvAt = p.Now()
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := costs.SendOverhead + costs.OneWay(bytes) + costs.RecvOverhead
	if recvAt != want {
		t.Fatalf("recv at %v, want %v", recvAt, want)
	}
}

func TestRecvBlocksUntilSend(t *testing.T) {
	e := sim.NewEngine(2)
	nw := New(e, model.SP2())
	var recvAt time.Duration
	err := e.Run(func(p host.Proc) {
		if p.ID() == 0 {
			p.Advance(10 * time.Millisecond)
			nw.Send(p, 1, tagData, nil, 0)
		} else {
			nw.Recv(p, 0, tagData)
			recvAt = p.Now()
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if recvAt < 10*time.Millisecond {
		t.Fatalf("receiver completed at %v before sender sent", recvAt)
	}
}

func TestStatsCount(t *testing.T) {
	e := sim.NewEngine(3)
	nw := New(e, model.SP2())
	err := e.Run(func(p host.Proc) {
		if p.ID() == 0 {
			nw.Send(p, 1, tagData, nil, 100)
			nw.Send(p, 2, tagData, nil, 100)
		} else {
			nw.Recv(p, 0, tagData)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := nw.Stats()
	if s.Msgs != 2 {
		t.Fatalf("msgs = %d, want 2", s.Msgs)
	}
	if s.Bytes != 200 {
		t.Fatalf("bytes = %d, want 200", s.Bytes)
	}
	if s.Node[0].MsgsSent != 2 || s.Node[1].MsgsRecv != 1 {
		t.Fatalf("per-node stats wrong: %+v", s.Node)
	}
}

func TestRequestChargesBothSides(t *testing.T) {
	e := sim.NewEngine(2)
	costs := model.SP2()
	nw := New(e, costs)
	nw.Serve(func(p host.Proc, at int, req any) (any, int) {
		e.Proc(at).Charge(5 * time.Microsecond)
		return req, 64
	})
	var reqDone, targetClock time.Duration
	err := e.Run(func(p host.Proc) {
		if p.ID() == 0 {
			pd := nw.StartRequest(p, 1, nil, 16)
			host.Await(p, pd, costs)
			reqDone = p.Now()
		} else {
			p.Advance(50 * time.Millisecond) // busy computing
			targetClock = p.Now()
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	targetCPU := costs.RecvOverhead + costs.RequestService + 5*time.Microsecond + costs.SendOverhead
	want := costs.SendOverhead + costs.OneWay(16) + targetCPU + costs.OneWay(64) + costs.RecvOverhead
	if reqDone != want {
		t.Fatalf("rpc completed at %v, want %v", reqDone, want)
	}
	if targetClock != 50*time.Millisecond+targetCPU {
		t.Fatalf("target clock = %v, want %v", targetClock, 50*time.Millisecond+targetCPU)
	}
}

func TestAwaitAllSerializesReceives(t *testing.T) {
	e := sim.NewEngine(3)
	costs := model.SP2()
	nw := New(e, costs)
	nw.Serve(func(p host.Proc, at int, req any) (any, int) { return nil, 0 })
	var done time.Duration
	err := e.Run(func(p host.Proc) {
		switch p.ID() {
		case 0:
			c1 := nw.StartRequest(p, 1, nil, 0)
			c2 := nw.StartRequest(p, 2, nil, 0)
			host.AwaitAll(p, []*host.Pending{c1, c2}, costs)
			done = p.Now()
		default:
			p.Advance(time.Millisecond)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if done == 0 {
		t.Fatal("AwaitAll did not advance requester clock")
	}
	// The two replies arrive staggered by one SendOverhead (requests were
	// injected serially); the later reply dominates and its receive
	// overhead is charged on top.
	targetCPU := costs.RecvOverhead + costs.RequestService + costs.SendOverhead
	resp2 := 2*costs.SendOverhead + costs.OneWay(0) + targetCPU + costs.OneWay(0)
	want := resp2 + costs.RecvOverhead
	if done != want {
		t.Fatalf("AwaitAll completed at %v, want %v", done, want)
	}
}

func TestAsyncOverlapsComputation(t *testing.T) {
	// A requester that computes between StartRPC and Await should finish
	// earlier relative to its work than one that blocks immediately.
	costs := model.SP2()
	run := func(async bool) time.Duration {
		e := sim.NewEngine(2)
		nw := New(e, costs)
		nw.Serve(func(p host.Proc, at int, req any) (any, int) { return nil, 4096 })
		var done time.Duration
		err := e.Run(func(p host.Proc) {
			if p.ID() == 0 {
				if async {
					c := nw.StartRequest(p, 1, nil, 0)
					p.Advance(300 * time.Microsecond) // overlapped compute
					host.Await(p, c, costs)
				} else {
					c := nw.StartRequest(p, 1, nil, 0)
					host.Await(p, c, costs)
					p.Advance(300 * time.Microsecond)
				}
				done = p.Now()
			}
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return done
	}
	if a, s := run(true), run(false); a >= s {
		t.Fatalf("async (%v) not faster than sync (%v)", a, s)
	}
}

func TestPerSenderOrderingByArrival(t *testing.T) {
	// Messages from one sender are received in arrival (send) order.
	e := sim.NewEngine(2)
	nw := New(e, model.SP2())
	err := e.Run(func(p host.Proc) {
		if p.ID() == 0 {
			for i := 0; i < 5; i++ {
				nw.Send(p, 1, tagData, i, 0)
			}
		} else {
			for i := 0; i < 5; i++ {
				if got := nw.Recv(p, 0, tagData).Payload.(int); got != i {
					t.Errorf("message %d received out of order: %d", i, got)
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestRecvByTagSelectsCorrectly(t *testing.T) {
	const tagA, tagB host.Tag = 10, 11
	e := sim.NewEngine(2)
	nw := New(e, model.SP2())
	err := e.Run(func(p host.Proc) {
		if p.ID() == 0 {
			nw.Send(p, 1, tagA, "a", 0)
			nw.Send(p, 1, tagB, "b", 0)
		} else {
			if got := nw.Recv(p, 0, tagB).Payload.(string); got != "b" {
				t.Errorf("tagB recv = %q", got)
			}
			if got := nw.Recv(p, 0, tagA).Payload.(string); got != "a" {
				t.Errorf("tagA recv = %q", got)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
