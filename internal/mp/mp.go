// Package mp is the hand-coded message-passing programming layer, the
// stand-in for the PVMe versions the paper compares against (and, with a
// per-phase distribution overhead, for the Forge XHPF compiler-generated
// versions). Programs written against it own their data as private slices
// and communicate explicitly over a host.Mailbox (a host.Network
// in-process, an Endpoint per rank under mpnet), paying the same message
// costs as the DSM runtime but none of its consistency machinery.
package mp

import (
	"time"

	"sdsm/internal/host"
	"sdsm/internal/model"
	"sdsm/internal/shm"
	"sdsm/internal/sim"
)

// World is one message-passing machine.
type World struct {
	H  host.Host
	NW host.Mailbox
}

// NewWorld creates an n-rank world over the SP/2 cost model on the
// deterministic sim engine.
func NewWorld(n int, costs model.Costs) *World {
	return NewWorldOn(sim.NewEngine(n), costs)
}

// NewWorldOn creates a world over an existing host backend.
func NewWorldOn(h host.Host, costs model.Costs) *World {
	return &World{H: h, NW: host.NewNetwork(h, costs)}
}

// Run executes body once per rank.
func (w *World) Run(body func(r *Rank)) error {
	return w.H.Run(func(p host.Proc) {
		body(&Rank{w: w, ID: p.ID(), N: w.H.N(), p: p})
	})
}

// MaxTime returns the parallel execution time.
func (w *World) MaxTime() time.Duration {
	var t time.Duration
	for i := 0; i < w.H.N(); i++ {
		if c := w.H.Proc(i).Now(); c > t {
			t = c
		}
	}
	return t
}

// Rank is one message-passing process. Rank data is private to the rank
// (plain Go slices), so only the communication methods — which bracket
// protocol sections themselves — touch shared state; compute between them
// runs in parallel on the real-concurrency host.
type Rank struct {
	w     *World
	ID    int
	N     int
	p     host.Proc
	scale int
}

// SetCostScale sets the compute-cost multiplier (the cscale parameter of
// scaled-down data sets); fixed overheads use AdvanceFixed.
func (r *Rank) SetCostScale(s int) {
	if s < 1 {
		s = 1
	}
	r.scale = s
}

const (
	tagData host.Tag = iota + 1
	tagBarrier
)

// Advance charges compute time, scaled by the cost multiplier.
func (r *Rank) Advance(d time.Duration) {
	if r.scale > 1 {
		d *= time.Duration(r.scale)
	}
	r.p.Advance(d)
}

// AdvanceFixed charges unscaled time (per-phase overheads).
func (r *Rank) AdvanceFixed(d time.Duration) { r.p.Advance(d) }

// Now returns the rank's virtual time.
func (r *Rank) Now() time.Duration { return r.p.Now() }

// Send transmits a copy of data to rank `to`.
func (r *Rank) Send(to int, data []float64) {
	r.p.Begin()
	defer r.p.End()
	r.w.NW.Send(r.p, to, tagData, append([]float64(nil), data...), len(data)*shm.WordBytes)
}

// Recv receives the next data message from rank `from`.
func (r *Rank) Recv(from int) []float64 {
	r.p.Begin()
	defer r.p.End()
	m := r.w.NW.Recv(r.p, from, tagData)
	return m.Payload.([]float64)
}

// Bcast broadcasts data from root; every rank returns the payload.
func (r *Rank) Bcast(root int, data []float64) []float64 {
	if r.N == 1 {
		return data
	}
	r.p.Begin()
	defer r.p.End()
	if r.ID == root {
		tos := make([]int, 0, r.N-1)
		for i := 0; i < r.N; i++ {
			if i != root {
				tos = append(tos, i)
			}
		}
		r.w.NW.SendShared(r.p, tos, tagData, append([]float64(nil), data...), len(data)*shm.WordBytes)
		return data
	}
	m := r.w.NW.Recv(r.p, root, tagData)
	return m.Payload.([]float64)
}

// Barrier synchronizes all ranks: gather at rank 0, which then releases
// the others in ascending rank order, paying the send overhead per
// release (how MPL broadcast behaves for small n).
func (r *Rank) Barrier() {
	if r.N == 1 {
		return
	}
	r.p.Begin()
	defer r.p.End()
	if r.ID == 0 {
		for i := 1; i < r.N; i++ {
			r.w.NW.Recv(r.p, host.AnySender, tagBarrier)
		}
		for i := 1; i < r.N; i++ {
			r.w.NW.Send(r.p, i, tagBarrier, nil, 0)
		}
		return
	}
	r.w.NW.Send(r.p, 0, tagBarrier, nil, 0)
	r.w.NW.Recv(r.p, 0, tagBarrier)
}

// Gather collects per-rank slices at root; root receives them indexed by
// rank (its own entry is data). Non-roots return nil.
func (r *Rank) Gather(root int, data []float64) [][]float64 {
	if r.N == 1 {
		return [][]float64{data}
	}
	r.p.Begin()
	defer r.p.End()
	if r.ID != root {
		r.w.NW.Send(r.p, root, tagData, append([]float64(nil), data...), len(data)*shm.WordBytes)
		return nil
	}
	out := make([][]float64, r.N)
	out[root] = data
	for i := 0; i < r.N; i++ {
		if i == root {
			continue
		}
		m := r.w.NW.Recv(r.p, i, tagData)
		out[i] = m.Payload.([]float64)
	}
	return out
}
