package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"sdsm/internal/apps"
	"sdsm/internal/harness"
	"sdsm/internal/svc"
	"sdsm/internal/wire"
)

// options shape one pass over one workload.
type options struct {
	seed    int64
	seconds float64
	// rounds > 0 runs exactly that many rounds instead of for seconds.
	rounds int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	outDir string
}

// ref is what every repetition of a config is checked against: the
// sequential reference checksum, and the config's first DSM run (the
// warm-up round, or the fresh harness.Run on svc-mix). Determinism is
// checked run against run, never against a pinned constant, so an
// intentional protocol change does not fail the benchmark.
type ref struct {
	seq   float64
	sum   float64
	virt  time.Duration
	msgs  int64
	first bool
}

// bench is one workload after set-up.
type bench struct {
	w      workload
	refs   []ref
	setupS []float64
	// coldRoundMS is the first warm-up round of the process: page-cache,
	// heap and code all cold.
	coldRoundMS float64

	co *svc.Coordinator
	cl *svc.Client

	failures int
}

// failf reports one failed op. The first few go to standard error so a
// red run explains itself; the count is what the result line carries.
func (b *bench) failf(format string, args ...any) {
	b.failures++
	if b.failures <= 10 {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", b.w.name, fmt.Sprintf(format, args...))
	}
}

// check applies the failure rules to one op's outcome: the checksum must
// be apps.Close to the sequential reference, and on sim the checksum,
// virtual time and message count must equal the config's first run.
func (b *bench) check(ci int, sum float64, virt time.Duration, msgs int64) error {
	c, r := b.w.configs[ci], &b.refs[ci]
	if !apps.Close(sum, r.seq) {
		return fmt.Errorf("%s: checksum %v, sequential reference %v", c.name, sum, r.seq)
	}
	if !r.first {
		r.sum, r.virt, r.msgs, r.first = sum, virt, msgs, true
		return nil
	}
	if c.sim() && (sum != r.sum || virt != r.virt || msgs != r.msgs) {
		return fmt.Errorf("%s: run (sum %v, virt %v, msgs %d) differs from first run (sum %v, virt %v, msgs %d)",
			c.name, sum, virt, msgs, r.sum, r.virt, r.msgs)
	}
	return nil
}

func (b *bench) checkResult(ci int, res *harness.Result) error {
	return b.check(ci, res.Checksum, res.Time, res.Msgs)
}

// checkSeq holds a variant of config ci (one proc, adapt off) to the
// sequential reference only: its time and messages are its own.
func (b *bench) checkSeq(ci int, res *harness.Result) error {
	if !apps.Close(res.Checksum, b.refs[ci].seq) {
		return fmt.Errorf("checksum %v, sequential reference %v", res.Checksum, b.refs[ci].seq)
	}
	return nil
}

// timedRun is harness.Run with its wall.
func timedRun(cfg harness.Config) (*harness.Result, time.Duration, error) {
	start := time.Now()
	res, err := harness.Run(cfg)
	return res, time.Since(start), err
}

func (b *bench) checkJob(ci int, res wire.JobResult) error {
	if res.Err != "" {
		return fmt.Errorf("%s: job %d: %s", b.w.configs[ci].name, res.ID, res.Err)
	}
	return b.check(ci, res.Checksum, time.Duration(res.VirtualNS), res.Msgs)
}

// setUp runs set-up n times (n ≥ 1) and keeps the last one's state. One
// set-up is everything before the timed section: sequential reference
// checksums, fresh reference runs, coordinator start + dial, and one
// untimed warm-up round.
func setUp(w workload, n int) (*bench, error) {
	var b *bench
	var walls []float64
	cold := 0.0
	for i := 0; i < n; i++ {
		if b != nil {
			b.close()
		}
		start := time.Now()
		nb, warm, err := setUpOnce(w)
		if err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(start).Seconds())
		if i == 0 {
			cold = warm
		}
		b = nb
	}
	b.setupS, b.coldRoundMS = walls, cold
	return b, nil
}

func setUpOnce(w workload) (b *bench, warmRoundMS float64, err error) {
	b = &bench{w: w, refs: make([]ref, len(w.configs))}
	seq := map[string]float64{}
	for i, c := range w.configs {
		key := c.cfg.App.Name + "/" + string(c.cfg.Set)
		if _, ok := seq[key]; !ok {
			seq[key] = harness.SeqChecksum(c.cfg.App, c.cfg.Set)
		}
		b.refs[i].seq = seq[key]
	}
	if w.svc {
		// pooled ≡ fresh: every job is checked against the fresh
		// harness.Run of the same spec taken here.
		for i, c := range w.configs {
			res, err := harness.Run(c.cfg)
			if err != nil {
				return nil, 0, fmt.Errorf("bench: %s: fresh reference run: %w", w.name, err)
			}
			if err := b.checkResult(i, res); err != nil {
				return nil, 0, fmt.Errorf("bench: %s: fresh reference run: %w", w.name, err)
			}
		}
		if b.co, err = svc.Start(svc.Config{Slots: 8}); err != nil {
			return nil, 0, fmt.Errorf("bench: %s: %w", w.name, err)
		}
		if b.cl, err = svc.Dial(b.co.Addr()); err != nil {
			b.co.Close()
			return nil, 0, fmt.Errorf("bench: %s: %w", w.name, err)
		}
	}
	start := time.Now()
	for _, ci := range w.round {
		if err := b.warmOp(ci); err != nil {
			b.close()
			return nil, 0, fmt.Errorf("bench: %s: warm-up round: %w", w.name, err)
		}
	}
	return b, float64(time.Since(start)) / 1e6, nil
}

func (b *bench) warmOp(ci int) error {
	c := b.w.configs[ci]
	if b.w.svc {
		res, err := b.cl.Do(c.spec())
		if err != nil {
			return err
		}
		return b.checkJob(ci, res)
	}
	res, err := harness.Run(c.cfg)
	if err != nil {
		return err
	}
	return b.checkResult(ci, res)
}

// close stops the coordinator and its client, waiting for both.
func (b *bench) close() {
	if b.cl != nil {
		b.cl.Close()
		b.cl = nil
	}
	if b.co != nil {
		b.co.Close()
		b.co = nil
	}
}

// snapshot is the process's consumption so far at one instant: user+sys
// CPU (getrusage) and the allocator's counters.
type snapshot struct {
	at             time.Time
	cpu            time.Duration
	mallocs, bytes uint64
}

// usage is what the process consumed over the measured intervals.
type usage struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
}

// cpuTime returns the process's user+sys CPU time and its peak resident
// set in MiB.
func cpuTime() (time.Duration, float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func snap() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu, _ := cpuTime()
	return snapshot{at: time.Now(), cpu: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// add accumulates what the process consumed between from and to.
func (u *usage) add(from, to snapshot) {
	u.wall += to.at.Sub(from.at)
	u.cpu += to.cpu - from.cpu
	u.mallocs += to.mallocs - from.mallocs
	u.bytes += to.bytes - from.bytes
}

// rounds yields the ops of a run round by round: each round is the
// workload's round in an order shuffled by the seed (the seed never
// reaches the program), and a new round starts only while the run's
// budget — opt.rounds, else opt.seconds — lasts and the caller's grant is
// not used up. Safe for concurrent callers, who between them take every op
// of every started round.
type rounds struct {
	mu      sync.Mutex
	w       workload
	opt     options
	rng     *rand.Rand
	start   time.Time
	started int
	grant   int // rounds that may still start; replenished by the caller
	over    bool
	order   []int
}

func newRounds(w workload, opt options) *rounds {
	return &rounds{
		w: w, opt: opt, rng: rand.New(rand.NewSource(opt.seed)),
		start: time.Now(), grant: math.MaxInt,
	}
}

func (r *rounds) next() (ci int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.order) == 0 {
		if r.opt.rounds > 0 {
			r.over = r.started >= r.opt.rounds
		} else {
			r.over = time.Since(r.start).Seconds() >= r.opt.seconds
		}
		if r.over || r.grant == 0 {
			return 0, false
		}
		r.grant--
		r.started++
		for _, i := range r.rng.Perm(len(r.w.round)) {
			r.order = append(r.order, r.w.round[i])
		}
	}
	ci = r.order[0]
	r.order = r.order[1:]
	return ci, true
}

// opSample is one completed op of the timed section.
type opSample struct {
	wallMS float64
	virt   time.Duration
}

// jobSample is one svc-mix job as its client saw it.
type jobSample struct {
	ci                    int
	submit, verdict, done time.Time
	res                   wire.JobResult
	retries               int
}

// timed is what a timed section yields: its completed ops, what the
// process consumed while ops ran (calibrations excluded), and the wall of
// every calibration.
type timed struct {
	ops       []opSample
	attempted int
	used      usage
	calMS     []float64
}

// runBatch is the closed loop of one driver goroutine calling harness.Run,
// a calibration before every op.
func (b *bench) runBatch(opt options) *timed {
	t := &timed{}
	rs := newRounds(b.w, opt)
	for {
		ci, ok := rs.next()
		if !ok {
			return t
		}
		t.calMS = append(t.calMS, calibrate())
		t.attempted++
		from := snap()
		res, err := harness.Run(b.w.configs[ci].cfg)
		to := snap()
		t.used.add(from, to)
		if err == nil {
			err = b.checkResult(ci, res)
		}
		if err != nil {
			b.failf("%v", err)
			continue
		}
		t.ops = append(t.ops, opSample{wallMS: ms(to.at.Sub(from.at)), virt: res.Time})
	}
}

// submit sends one job and waits for its result. A queue-full rejection
// backs off and retries, as a patient client does; any other rejection
// fails the op.
func (b *bench) submit(ci int) (jobSample, error) {
	js := jobSample{ci: ci, submit: time.Now()}
	spec := b.w.configs[ci].spec()
	for {
		j, err := b.cl.Submit(spec)
		if err != nil {
			if strings.Contains(err.Error(), "queue full") {
				js.retries++
				time.Sleep(time.Duration(js.retries) * time.Millisecond)
				continue
			}
			return js, err
		}
		js.verdict = time.Now()
		js.res = j.Wait()
		js.done = time.Now()
		return js, nil
	}
}

// runJobs is the svc-mix closed loop: svcSubmitters goroutines share one
// client connection, each sending its next job only after its previous
// one's result arrived, until rs yields no more.
func (b *bench) runJobs(rs *rounds) (jobs []jobSample, attempted int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for s := 0; s < svcSubmitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ci, ok := rs.next()
				if !ok {
					return
				}
				js, err := b.submit(ci)
				mu.Lock()
				attempted++
				if err == nil {
					err = b.checkJob(ci, js.res)
				}
				if err != nil {
					b.failf("%v", err)
				} else {
					jobs = append(jobs, js)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return jobs, attempted
}

// runService is the timed section of svc-mix: bursts of burstRounds rounds
// through runJobs, the submitters drained and a calibration taken between
// bursts.
func (b *bench) runService(opt options) *timed {
	t := &timed{}
	rs := newRounds(b.w, opt)
	for !rs.over {
		t.calMS = append(t.calMS, calibrate())
		rs.grant = burstRounds
		from := snap()
		jobs, n := b.runJobs(rs)
		to := snap()
		t.attempted += n
		if n == 0 {
			continue // the budget ran out during the calibration
		}
		t.used.add(from, to)
		for _, j := range jobs {
			t.ops = append(t.ops, opSample{wallMS: ms(j.done.Sub(j.submit)), virt: time.Duration(j.res.VirtualNS)})
		}
	}
	return t
}

// endToEndPass runs the workload with tracing off and returns the
// end-to-end metrics. Host times are reported at reference speed (see
// calib.go); counts and virtual time are as measured.
func endToEndPass(w workload, opt options) (*result, error) {
	b, err := setUp(w, opt.setups)
	if err != nil {
		return nil, err
	}
	defer b.close()

	runtime.GC() // every timed section starts from a collected heap
	var t *timed
	if w.svc {
		t = b.runService(opt)
	} else {
		t = b.runBatch(opt)
	}

	res := newResult(t.attempted, b.failures)
	if len(t.ops) == 0 {
		return res, fmt.Errorf("bench: %s: no op completed", w.name)
	}
	n := float64(len(t.ops))
	walls := make([]float64, len(t.ops))
	virt := 0.0
	for i, op := range t.ops {
		walls[i] = op.wallMS
		virt += ms(op.virt)
	}
	speed := calRefMS / median(t.calMS) // < 1: the box is slower than reference today
	res.samples = len(t.ops)
	res.note = fmt.Sprintf("calibration median %.2f ms over %d samples: host times scaled by %.3f",
		median(t.calMS), len(t.calMS), speed)
	res.set("setup_s", median(b.setupS)*speed)
	res.set("ops_per_s", n/t.used.wall.Seconds()/speed)
	res.set("op_p50_ms", percentile(walls, 0.50)*speed)
	res.set("op_p90_ms", percentile(walls, 0.90)*speed)
	res.set("cpu_ms_per_op", ms(t.used.cpu)/n*speed)
	res.set("allocs_per_op", float64(t.used.mallocs)/n)
	res.set("alloc_kb_per_op", float64(t.used.bytes)/1024/n)
	res.set("virt_ms_per_op", virt/n)
	return res, nil
}
