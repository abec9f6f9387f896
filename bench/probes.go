package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"time"

	"sdsm/internal/adapt"
	"sdsm/internal/apps"
	"sdsm/internal/cluster"
	"sdsm/internal/harness"
	"sdsm/internal/host"
	"sdsm/internal/model"
	"sdsm/internal/shm"
	"sdsm/internal/sim"
	"sdsm/internal/tmk"
	"sdsm/internal/vm"
	"sdsm/internal/wire"
)

// Probes time one layer's exported calls in isolation. Each runs a few
// short repetitions and reports the median, so a traced pass pays about
// two seconds for all of them and runs them on every workload.

// probeReps is the number of repetitions behind each probe's median.
const probeReps = 3

// measured runs fn and returns its wall and the heap allocations it made.
// The Mallocs counter is process-global: probes run alone.
func measured(fn func() error) (time.Duration, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	return wall, m1.Mallocs - m0.Mallocs, err
}

// differential runs fn at a short and a long iteration count and returns
// the per-iteration wall (ns) and allocations of the difference, so that
// machine set-up and teardown cancel. Median of probeReps.
func differential(short, long int, fn func(iters int) error) (ns, allocs float64, err error) {
	var nss, als []float64
	for r := 0; r < probeReps; r++ {
		ws, as, err := measured(func() error { return fn(short) })
		if err != nil {
			return 0, 0, err
		}
		wl, al, err := measured(func() error { return fn(long) })
		if err != nil {
			return 0, 0, err
		}
		d := float64(long - short)
		nss = append(nss, float64(wl-ws)/d)
		als = append(als, (float64(al)-float64(as))/d)
	}
	return median(nss), median(als), nil
}

// machine builds a bare n-node DSM machine on one backend over a layout
// of n pages, as bench_test.go's barrier flurry does.
func machine(backend harness.Backend, n int) (*tmk.System, *shm.Array, func(), error) {
	layout := shm.NewLayout()
	arr := layout.Alloc("mem", n*shm.PageWords)
	costs := model.SP2()
	switch backend {
	case harness.BackendSim:
		e := sim.NewEngine(n)
		return tmk.New(e, cluster.New(e, costs), layout), arr, func() {}, nil
	case harness.BackendReal:
		r := host.NewReal(n)
		return tmk.New(r, cluster.New(r, costs), layout), arr, func() {}, nil
	case harness.BackendNet:
		nw, err := host.NewNet(n, costs)
		if err != nil {
			return nil, nil, nil, err
		}
		return tmk.New(nw, nw, layout), arr, func() { nw.Close() }, nil
	}
	return nil, nil, nil, fmt.Errorf("bench: unknown backend %q", backend)
}

// barrierFlurry is the steady-state barrier epoch of bench_test.go: every
// node writes a slice of its own page, barriers, reads a neighbour's slice
// (a demand diff fetch) and barriers again.
func barrierFlurry(backend harness.Backend, n, iters int) error {
	sys, arr, done, err := machine(backend, n)
	if err != nil {
		return err
	}
	defer done()
	return sys.Run(func(nd *tmk.Node) {
		const words = 64
		for it := 0; it < iters; it++ {
			lo := arr.Base + nd.ID*shm.PageWords
			nd.Mem.EnsureWrite(nd.Proc(), shm.Region{Lo: lo, Hi: lo + words})
			nd.Proc().BeginCompute()
			for w := lo; w < lo+words; w++ {
				nd.Mem.Data()[w] = float64(it + w)
			}
			nd.Proc().EndCompute()
			nd.Barrier(1)
			peer := arr.Base + ((nd.ID+1)%n)*shm.PageWords
			nd.Mem.EnsureRead(nd.Proc(), shm.Region{Lo: peer, Hi: peer + words})
			nd.Barrier(2)
		}
	})
}

// lockCounter is a one-lock migratory counter: every node takes the lock,
// increments one shared word and releases, iters times, so each critical
// section is a lock hand-off plus the migration of one page.
func lockCounter(backend harness.Backend, n, iters int) error {
	sys, arr, done, err := machine(backend, n)
	if err != nil {
		return err
	}
	defer done()
	word := shm.Region{Lo: arr.Base, Hi: arr.Base + 1}
	return sys.Run(func(nd *tmk.Node) {
		for it := 0; it < iters; it++ {
			nd.Acquire(1)
			nd.Mem.EnsureWrite(nd.Proc(), word)
			nd.Proc().BeginCompute()
			nd.Mem.Data()[arr.Base]++
			nd.Proc().EndCompute()
			nd.Release(1)
		}
		nd.Barrier(1)
	})
}

// diffReplyFrame is the ~1.5 KB diff-reply frame the net backend ships on
// every fault (two page diffs of short runs), as in bench_test.go.
func diffReplyFrame() *wire.Frame {
	mk := func(page int32) wire.Diff {
		d := wire.Diff{
			Page: page, Creator: 1, From: 4, To: 5,
			Covers: []int32{5, 3, 7, 1, 0, 2, 4, 9},
		}
		for off := int32(0); off < 512; off += 8 {
			d.Runs = append(d.Runs, wire.Run{Off: off, Vals: []float64{1, 2, 3, 4}})
		}
		return d
	}
	return &wire.Frame{
		Kind: wire.FReply, From: 1, To: 0, Tag: 9, Bytes: 1552, Time: 123456,
		Payload: wire.DiffReply{Diffs: []wire.Diff{mk(3), mk(4)}},
	}
}

// twinOnFault is the vm probe's fault handler: it twins the page and
// write-enables it, the base protocol's write-fault action.
type twinOnFault struct{ m *vm.Mem }

func (h *twinOnFault) Fault(p host.Proc, page int, acc vm.Access) {
	h.m.MakeTwin(p, page)
	h.m.SetProt(p, page, vm.ReadWrite)
}

// probeVM times the page cycle EnsureWrite fault → MakeTwin → 64 stores →
// DiffAgainstTwin → ApplyRuns on a second memory.
func probeVM() (us, allocs float64) {
	const pages, cycles = 16, 4000
	costs := model.SP2()
	p := sim.NewEngine(1).Proc(0) // vm only charges the clock; no Run needed
	h := &twinOnFault{}
	src := vm.New(0, pages*shm.PageWords, costs, h)
	h.m = src
	dst := vm.New(1, pages*shm.PageWords, costs, nil)
	for pg := 0; pg < pages; pg++ {
		src.SetProtInit(pg, vm.ReadOnly)
		dst.SetProtInit(pg, vm.ReadWrite)
	}
	var uss, als []float64
	for r := 0; r < probeReps; r++ {
		wall, mallocs, _ := measured(func() error {
			for i := 0; i < cycles; i++ {
				pg := i % pages
				lo := pg * shm.PageWords
				src.EnsureWrite(p, shm.Region{Lo: lo, Hi: lo + 64})
				for w := lo; w < lo+64; w++ {
					src.Data()[w] = float64(i + w)
				}
				runs := src.DiffAgainstTwin(p, pg)
				dst.ApplyRuns(p, pg, runs)
				src.SetProtInit(pg, vm.ReadOnly)
			}
			return nil
		})
		uss = append(uss, float64(wall)/1e3/cycles)
		als = append(als, float64(mallocs)/cycles)
	}
	return median(uss), median(als)
}

// probeAdapt times Detector.Advance over a synthetic 256-page epoch of a
// stable one-producer one-consumer pattern.
func probeAdapt() float64 {
	const pages, epochs = 256, 200
	ep := adapt.Epoch{Writers: map[int][]adapt.WriteExt{}, Readers: map[int][]int{}}
	for pg := 0; pg < pages; pg++ {
		ep.Writers[pg] = []adapt.WriteExt{{Node: pg % 8, Lo: 0, Hi: shm.PageWords}}
		ep.Readers[pg] = []int{(pg + 1) % 8}
	}
	var uss []float64
	for r := 0; r < probeReps; r++ {
		d := adapt.New(adapt.Config{})
		start := time.Now()
		for e := 0; e < epochs; e++ {
			d.Advance(ep)
		}
		uss = append(uss, float64(time.Since(start))/1e3/epochs)
	}
	return median(uss)
}

// probeSimYield times one scheduler hand-off: 8 processors each Advance
// (which yields to the smallest clock) iters times.
func probeSimYield() (float64, error) {
	const procs, iters = 8, 5000
	var nss []float64
	for r := 0; r < probeReps; r++ {
		e := sim.NewEngine(procs)
		start := time.Now()
		err := e.Run(func(p host.Proc) {
			for i := 0; i < iters; i++ {
				p.Advance(time.Microsecond)
			}
		})
		if err != nil {
			return 0, err
		}
		nss = append(nss, float64(time.Since(start))/(procs*iters))
	}
	return median(nss), nil
}

// probeFrameQueue times host.FrameQueue over a loopback socket pair:
// 64-frame bursts of the diff-reply frame, one Flush per burst, a reader
// draining the other end.
func probeFrameQueue() (float64, error) {
	const burst, bursts = 64, 100
	ln, dir, err := host.ListenLoopback()
	if err != nil {
		return 0, err
	}
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	w, err := net.Dial(ln.Addr().Network(), ln.Addr().String())
	if err != nil {
		return 0, err
	}
	r, ok := <-accepted
	if !ok {
		w.Close()
		return 0, fmt.Errorf("bench: framequeue probe: accept failed")
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		_, _ = io.Copy(io.Discard, r) // ends when the writer side closes
	}()
	fq := host.NewFrameQueue(w, nil)
	f := diffReplyFrame()
	var nss []float64
	for rep := 0; rep < probeReps && err == nil; rep++ {
		start := time.Now()
		for b := 0; b < bursts && err == nil; b++ {
			for i := 0; i < burst && err == nil; i++ {
				var raw []byte
				if raw, err = wire.AppendFrame(wire.GetBuf()[:0], f); err == nil {
					err = fq.Enqueue(raw)
				}
			}
			if err == nil {
				err = fq.Flush()
			}
		}
		nss = append(nss, float64(time.Since(start))/(burst*bursts))
	}
	if cerr := fq.Close(); err == nil {
		err = cerr
	}
	w.Close()
	<-drained
	r.Close()
	return median(nss), err
}

// probeWire times the codec on the diff-reply frame: pooled encode
// (GetBuf/AppendFrame/PutBuf) and FrameReader.ReadInto decode.
func probeWire() (encNS, decNS, decAllocs, frameBytes float64, err error) {
	const iters = 20000
	f := diffReplyFrame()
	one, err := wire.AppendFrame(nil, f)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	stream := bytes.Repeat(one, iters)
	var encs, decs, als []float64
	for r := 0; r < probeReps; r++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			enc, err := wire.AppendFrame(wire.GetBuf()[:0], f)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			wire.PutBuf(enc)
		}
		encs = append(encs, float64(time.Since(start))/iters)

		fr := wire.NewFrameReader(bytes.NewReader(stream))
		var into wire.Frame
		wall, mallocs, err := measured(func() error {
			for i := 0; i < iters; i++ {
				if err := fr.ReadInto(&into); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		decs = append(decs, float64(wall)/iters)
		als = append(als, float64(mallocs)/iters)
	}
	return median(encs), median(decs), median(als), float64(len(one)), nil
}

// probeRealTokens runs one traced is/small on the real backend — the
// backend's only appearance in the ledger — and returns its protocol
// token acquisitions.
func probeRealTokens() (float64, error) {
	a, err := apps.ByName("is")
	if err != nil {
		return 0, err
	}
	res, err := harness.Run(harness.Config{
		App: a, Set: apps.Small, System: harness.Base, Procs: 4,
		Backend: harness.BackendReal, Verify: true, Trace: true,
	})
	if err != nil {
		return 0, err
	}
	return float64(harness.Snapshot(res).Counters["host.token.acquires"]), nil
}

// runProbes fills in every probe metric.
func runProbes(res *result) error {
	const nodes = 4
	for _, be := range []harness.Backend{harness.BackendSim, harness.BackendReal, harness.BackendNet} {
		ns, allocs, err := differential(20, 120, func(iters int) error {
			return barrierFlurry(be, nodes, iters)
		})
		if err != nil {
			return fmt.Errorf("barrier probe on %s: %w", be, err)
		}
		res.set("tmk.barrier_epoch_us."+string(be), ns/1e3)
		if be == harness.BackendNet {
			res.set("tmk.barrier_epoch_allocs.net", allocs)
		}
	}
	for _, be := range []harness.Backend{harness.BackendSim, harness.BackendNet} {
		ns, _, err := differential(20, 120, func(iters int) error {
			return lockCounter(be, nodes, iters)
		})
		if err != nil {
			return fmt.Errorf("lock probe on %s: %w", be, err)
		}
		res.set("tmk.lock_handoff_us."+string(be), ns/1e3/nodes)
	}
	res.set("adapt.advance_us", probeAdapt())
	us, allocs := probeVM()
	res.set("vm.page_cycle_us", us)
	res.set("vm.page_cycle_allocs", allocs)
	yield, err := probeSimYield()
	if err != nil {
		return err
	}
	res.set("sim.yield_ns", yield)
	fqNS, err := probeFrameQueue()
	if err != nil {
		return fmt.Errorf("framequeue probe: %w", err)
	}
	res.set("host.framequeue_ns_per_frame", fqNS)
	enc, dec, decAllocs, size, err := probeWire()
	if err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	res.set("wire.encode_ns", enc)
	res.set("wire.decode_ns", dec)
	res.set("wire.decode_allocs", decAllocs)
	res.set("wire.frame_bytes", size)
	tokens, err := probeRealTokens()
	if err != nil {
		return fmt.Errorf("real-backend probe: %w", err)
	}
	res.set("host.token_acquires_per_op", tokens)
	return nil
}
