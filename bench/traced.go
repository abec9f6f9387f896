package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"sdsm/internal/harness"
	"sdsm/internal/obs"
	"sdsm/internal/svc"
)

// The traced pass produces the per-layer numbers purely from outside the
// program: by timing calls into each layer's exported functions (the
// staged replica, the probes), by differential runs (plain vs Config.Trace,
// plain vs Procs:1, adapt vs its plain twin, pooled vs fresh), and by
// reading counters the public API already returns. It interleaves the
// kinds of round so that drift of the box cancels in the ratios.

// tally accumulates one traced pass.
type tally struct {
	// Per-config walls (ms) of each kind of round.
	plain, staged, trace, pooled, uni, twin [][]float64

	// stage[s] is the per-config walls (ms) of the staged replica's stage s.
	stage [numStages][][]float64

	plainOps int
	res      harness.Result // sums of the plain runs' counters
	gcCycles uint32
	gcPause  time.Duration

	traceOps   int
	counters   map[string]int64
	histograms map[string]obs.HistSnap

	seqMS     float64
	attempted int
}

func newTally(n int) *tally {
	mk := func() [][]float64 { return make([][]float64, n) }
	t := &tally{
		plain: mk(), staged: mk(), trace: mk(), pooled: mk(), uni: mk(), twin: mk(),
		counters: map[string]int64{}, histograms: map[string]obs.HistSnap{},
	}
	for s := range t.stage {
		t.stage[s] = mk()
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sumP50 adds up each config's median wall: the per-round cost of a kind
// of round with each config's noise — this box stalls for whole seconds
// now and then — taken out first.
func sumP50(walls [][]float64) float64 {
	sum := 0.0
	for _, w := range walls {
		sum += median(w)
	}
	return sum
}

func (t *tally) addPlain(ci int, wall time.Duration, r *harness.Result) {
	t.plain[ci] = append(t.plain[ci], ms(wall))
	t.plainOps++
	s, p, v := &t.res, &r.Protocol, &r.VM
	s.Msgs += r.Msgs
	s.Bytes += r.Bytes
	s.Segv += r.Segv
	s.VM.Twins += v.Twins
	s.VM.DiffWords += v.DiffWords
	s.Protocol.DiffFetches += p.DiffFetches
	s.Protocol.DiffsApplied += p.DiffsApplied
	s.Protocol.Barriers += p.Barriers
	s.Protocol.LockAcquires += p.LockAcquires
	s.Protocol.Validates += p.Validates
	s.Protocol.Pushes += p.Pushes
	s.Protocol.DirRedirects += p.DirRedirects
	s.Protocol.AdaptUpdates += p.AdaptUpdates
	s.Protocol.AdaptPromotions += p.AdaptPromotions + p.AdaptSplits + p.AdaptLockPromotions
	s.Recovery.CheckpointBytes += r.Recovery.CheckpointBytes
}

func (t *tally) addTrace(ci int, wall time.Duration, r *harness.Result) {
	t.trace[ci] = append(t.trace[ci], ms(wall))
	t.traceOps++
	snap := harness.Snapshot(r)
	for name, v := range snap.Counters {
		t.counters[name] += v
	}
	for name, h := range snap.Histograms {
		acc, ok := t.histograms[name]
		if !ok {
			t.histograms[name] = h
			continue
		}
		for i := range acc.Counts {
			acc.Counts[i] += h.Counts[i]
		}
		acc.N += h.N
		acc.Sum += h.Sum
		if h.Max > acc.Max {
			acc.Max = h.Max
		}
		t.histograms[name] = acc
	}
}

// tracedRound runs one round of every kind over the workload's configs in
// a seed-shuffled order.
func (b *bench) tracedRound(t *tally, log *spanLog, pool *svc.Pool, rng *rand.Rand) {
	w := b.w
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, ci := range rng.Perm(len(w.configs)) {
		t.attempted++
		res, wall, err := timedRun(w.configs[ci].cfg)
		if err == nil {
			err = b.checkResult(ci, res)
		}
		if err != nil {
			b.failf("%v", err)
			continue
		}
		t.addPlain(ci, wall, res)
	}
	runtime.ReadMemStats(&m1)
	t.gcCycles += m1.NumGC - m0.NumGC
	t.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)

	for _, ci := range rng.Perm(len(w.configs)) {
		t.attempted++
		sr, err := stagedRun(w.configs[ci], log)
		if err == nil {
			// staged replica ≡ harness.Run
			err = b.check(ci, sr.sum, sr.virt, sr.msgs)
		}
		if err != nil {
			b.failf("staged replica: %v", err)
			continue
		}
		t.staged[ci] = append(t.staged[ci], ms(sr.total))
		for s, d := range sr.stage {
			t.stage[s][ci] = append(t.stage[s][ci], ms(d))
		}
	}

	for _, ci := range rng.Perm(len(w.configs)) {
		t.attempted++
		cfg := w.configs[ci].cfg
		cfg.Trace = true
		res, wall, err := timedRun(cfg)
		if err == nil {
			// Tracing must be invisible: same checksum, time and messages.
			err = b.checkResult(ci, res)
		}
		if err != nil {
			b.failf("Config.Trace run: %v", err)
			continue
		}
		t.addTrace(ci, wall, res)
	}

	if pool != nil {
		for _, ci := range rng.Perm(len(w.configs)) {
			t.attempted++
			start := time.Now()
			res := pool.Run(w.configs[ci].spec())
			wall := time.Since(start)
			if err := b.checkJob(ci, res); err != nil {
				b.failf("Pool.Run: %v", err)
				continue
			}
			t.pooled[ci] = append(t.pooled[ci], ms(wall))
		}
	}

	if ci := w.adaptPair; ci >= 0 {
		t.attempted++
		cfg := w.configs[ci].cfg
		cfg.Adapt = false
		res, wall, err := timedRun(cfg)
		if err == nil {
			err = b.checkSeq(ci, res)
		}
		if err != nil {
			b.failf("%s with adapt off: %v", w.configs[ci].name, err)
		} else {
			t.twin[ci] = append(t.twin[ci], ms(wall))
		}
	}
}

// uniRound runs every config at Procs: 1 — the same program and data with
// no peer to talk to — and times the sequential interpreter on it too.
func (b *bench) uniRound(t *tally) {
	for ci, c := range b.w.configs {
		t.attempted++
		cfg := c.cfg
		cfg.Procs = 1
		res, wall, err := timedRun(cfg)
		if err == nil {
			err = b.checkSeq(ci, res)
		}
		if err != nil {
			b.failf("%s at 1 proc: %v", c.name, err)
			continue
		}
		t.uni[ci] = append(t.uni[ci], ms(wall))

		start := time.Now()
		harness.SeqChecksum(c.cfg.App, c.cfg.Set)
		t.seqMS += ms(time.Since(start))
	}
}

// profileRounds runs plain rounds under the CPU profiler and then writes
// the heap profile, so the next performance issue sizes its claim with
// `go tool pprof` on the named workload.
func (b *bench) profileRounds(t *tally, n int, base string) error {
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	cpu, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return err
	}
	for r := 0; r < n; r++ {
		for ci, c := range b.w.configs {
			t.attempted++
			res, err := harness.Run(c.cfg)
			if err == nil {
				err = b.checkResult(ci, res)
			}
			if err != nil {
				b.failf("profiled run: %v", err)
			}
		}
	}
	pprof.StopCPUProfile()
	if err := cpu.Close(); err != nil {
		return err
	}
	heap, err := os.Create(base + ".heap.pprof")
	if err != nil {
		return err
	}
	runtime.GC() // the heap profile reports as of the last collection
	if err := pprof.WriteHeapProfile(heap); err != nil {
		heap.Close()
		return err
	}
	return heap.Close()
}

// tracedPass runs the workload's traced pass and returns every per-layer
// metric (0 for the ones this workload does not exercise).
func tracedPass(w workload, opt options) (*result, error) {
	b, err := setUp(w, 1)
	if err != nil {
		return nil, err
	}
	defer b.close()
	log := newSpanLog()
	t := newTally(len(w.configs))
	res := newResult(0, 0)
	for _, m := range perLayer {
		res.set(m.Name, 0)
	}

	var pool *svc.Pool
	if w.svc {
		// The service phase first, on the coordinator set-up just warmed:
		// the closed loop of the end-to-end pass with a span per job.
		jobOpt := opt
		jobOpt.seconds = 0.3 * opt.seconds
		jobs, n := b.runJobs(newRounds(w, jobOpt))
		t.attempted += n
		for _, j := range jobs {
			name := w.configs[j.ci].name
			op := log.newOp()
			root := log.add(op, 0, name, "svc.job", j.submit, j.done)
			log.add(op, root, name, "svc.admit", j.submit, j.verdict)
			log.add(op, root, name, "svc.wait", j.verdict, j.done)
		}
		serviceMetrics(res, w, jobs)
		res.set("svc.rejected", float64(b.co.Snapshot().Rejected))
		pool = svc.NewPool(8)
	}

	rng := rand.New(rand.NewSource(opt.seed))
	start := time.Now()
	for i := 0; ; i++ {
		if opt.rounds > 0 {
			if i >= opt.rounds {
				break
			}
		} else if i > 0 && time.Since(start).Seconds() >= 0.5*opt.seconds {
			break
		}
		b.tracedRound(t, log, pool, rng)
	}
	b.uniRound(t)
	profRounds := 2
	if opt.rounds > 0 {
		profRounds = 1
	}
	base := filepath.Join(opt.outDir, w.name)
	if err := b.profileRounds(t, profRounds, base); err != nil {
		return nil, fmt.Errorf("bench: %s: profile: %w", w.name, err)
	}
	if err := runProbes(res); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", w.name, err)
	}
	if err := log.write(base + ".spans.json"); err != nil {
		return nil, fmt.Errorf("bench: %s: spans: %w", w.name, err)
	}

	res.Attempted, res.Failed = t.attempted, b.failures
	res.Correct = b.failures == 0
	res.samples = t.plainOps
	if t.plainOps == 0 || t.traceOps == 0 {
		return res, fmt.Errorf("bench: %s: a kind of traced round completed no op", w.name)
	}
	t.layerMetrics(res, b)
	return res, nil
}

// layerMetrics turns the tally into the per-layer metrics.
func (t *tally) layerMetrics(res *result, b *bench) {
	w := b.w
	nc := float64(len(w.configs))
	perPlain := func(v int64) float64 { return float64(v) / float64(t.plainOps) }
	perStaged := func(s int) float64 { return sumP50(t.stage[s]) / nc }
	perTrace := func(name string) float64 { return float64(t.counters[name]) / float64(t.traceOps) }
	plainSum := sumP50(t.plain)
	var stagedTotal, built float64
	for s := range t.stage {
		stagedTotal += perStaged(s)
		if s != stageRun {
			built += perStaged(s)
		}
	}

	res.set("apps.build_ms", perStaged(stageApps))
	res.set("compiler.compile_ms", perStaged(stageCompile))
	res.set("compiler.layout_ms", perStaged(stageLayout))
	res.set("interp.run_ms", perStaged(stageRun))
	res.set("interp.seq_ms", t.seqMS/nc)
	for ci, c := range w.configs {
		res.set("harness.run_p50_ms."+c.name, median(t.plain[ci]))
	}
	res.set("harness.uni_ms", sumP50(t.uni)/nc)
	res.set("harness.build_frac", ratio(built, stagedTotal))
	res.set("harness.teardown_ms", perStaged(stageTeardown))
	res.set("harness.cold_round_ms", b.coldRoundMS)

	res.set("tmk.new_ms", perStaged(stageTmk))
	res.set("tmk.overhead_frac", 1-ratio(sumP50(t.uni), plainSum))
	p := &t.res.Protocol
	res.set("tmk.diff_fetches_per_op", perPlain(p.DiffFetches))
	res.set("tmk.diffs_applied_per_op", perPlain(p.DiffsApplied))
	res.set("tmk.barriers_per_op", perPlain(p.Barriers))
	res.set("tmk.lock_acquires_per_op", perPlain(p.LockAcquires))
	res.set("tmk.validates_per_op", perPlain(p.Validates))
	res.set("tmk.pushes_per_op", perPlain(p.Pushes))
	res.set("tmk.dir_redirects_per_op", perPlain(p.DirRedirects))
	res.set("tmk.ckpt_kb_per_op", perPlain(t.res.Recovery.CheckpointBytes)/1024)
	// Virtual µs on sim, wall µs on net: the trace's own timeline.
	res.set("tmk.fault_service_p50_us", float64(t.histograms["fault.service.ns"].Quantile(0.5))/1e3)
	res.set("tmk.barrier_wait_p50_us", float64(t.histograms["barrier.wait.ns"].Quantile(0.5))/1e3)

	res.set("adapt.updates_per_op", perPlain(p.AdaptUpdates))
	res.set("adapt.promotions_per_op", perPlain(p.AdaptPromotions))
	if ci := w.adaptPair; ci >= 0 && len(t.twin[ci]) > 0 {
		res.set("adapt.overhead_frac", ratio(median(t.plain[ci]), median(t.twin[ci]))-1)
	}

	res.set("vm.faults_per_op", perPlain(t.res.Segv))
	res.set("vm.twins_per_op", perPlain(t.res.VM.Twins))
	res.set("vm.diff_words_per_op", perPlain(t.res.VM.DiffWords))

	res.set("sim.dispatches_per_op", perTrace("sim.dispatches"))
	res.set("sim.ns_per_dispatch", ratio(sumP50(t.trace)*1e6, perTrace("sim.dispatches")*nc))

	res.set("host.new_ms", perStaged(stageHost))
	res.set("host.msgs_per_op", perPlain(t.res.Msgs))
	res.set("host.kb_per_op", perPlain(t.res.Bytes)/1024)
	res.set("host.us_per_msg", ratio(plainSum*1e3, perPlain(t.res.Msgs)*nc))
	res.set("host.net_frames_per_op", perTrace("net.frames"))
	res.set("host.net_flushes_per_op", perTrace("net.flushes"))
	res.set("host.frames_per_flush", ratio(float64(t.counters["net.frames"]), float64(t.counters["net.flushes"])))

	if w.svc {
		res.set("svc.warm_vs_fresh_frac", ratio(sumP50(t.pooled), plainSum))
	}
	res.set("obs.trace_overhead_frac", ratio(sumP50(t.trace), plainSum)-1)
	res.set("runtime.gc_cycles_per_op", float64(t.gcCycles)/float64(t.plainOps))
	res.set("runtime.gc_pause_ms_per_op", ms(t.gcPause)/float64(t.plainOps))
	_, rss := cpuTime()
	res.set("runtime.peak_rss_mb", rss)
	res.set("bench.span_overhead_frac", ratio(sumP50(t.staged), plainSum)-1)
}

// serviceMetrics reports the service phase: what the client saw of each
// job, against what the executor says the run itself took.
func serviceMetrics(res *result, w workload, jobs []jobSample) {
	var admit, lat, over, run []float64
	byType := make([][]float64, len(w.configs))
	retries := 0
	for _, j := range jobs {
		l, r := ms(j.done.Sub(j.submit)), float64(j.res.WallNS)/1e6
		admit = append(admit, float64(j.verdict.Sub(j.submit))/1e3)
		lat = append(lat, l)
		over = append(over, l-r)
		run = append(run, r)
		byType[j.ci] = append(byType[j.ci], l)
		retries += j.retries
	}
	res.set("svc.admit_p50_us", percentile(admit, 0.5))
	res.set("svc.overhead_p50_ms", percentile(over, 0.5))
	res.set("svc.overhead_p90_ms", percentile(over, 0.9))
	res.set("svc.run_p50_ms", percentile(run, 0.5))
	res.set("svc.job_p99_ms", percentile(lat, 0.99))
	for ci, c := range w.configs {
		res.set("svc.job_p50_ms."+c.name, percentile(byType[ci], 0.5))
	}
	res.set("svc.queue_retries", float64(retries))
}
