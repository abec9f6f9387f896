package svc

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"sdsm/internal/wire"
)

// LoadConfig shapes one load-generator run against a coordinator.
type LoadConfig struct {
	// Jobs is the total number of jobs to complete.
	Jobs int
	// Concurrency is the number of in-flight submissions (client-side
	// open-loop width). <=0 means 8.
	Concurrency int
}

// tableDMix is Table D's job mix: mixed apps, mixed rank counts, protocol
// modes on and off, all on the sim backend. Job i runs entry
// i%len(tableDMix); spec IDs are assigned by the service.
var tableDMix = []wire.JobSpec{
	{App: "jacobi", Set: "small", Procs: 2, Verify: true},
	{App: "spmv", Set: "small", Procs: 4, Verify: true, Scale: true},
	{App: "tsp", Set: "small", Procs: 2, Verify: true},
	{App: "jacobi", Set: "bound", Procs: 2, Verify: true, Adapt: true},
}

// MixRow aggregates every completed job of one mix entry. The
// deterministic columns — Jobs, Checksum, VirtualNS, and their
// consistency across the entry's jobs — are what the Table D golden
// pins; wall-clock latency lives only in the report totals.
type MixRow struct {
	App       string
	Set       string
	System    string
	Procs     int32
	Jobs      int
	Errs      int
	Checksum  float64 // the entry's common checksum (first seen)
	VirtualNS int64   // the entry's common virtual time (first seen)
	// Consistent reports that every successful job of this entry returned
	// the same checksum and virtual time — the service-level statement of
	// the repo's equivalence discipline.
	Consistent bool
}

// LoadReport is the outcome of one load run: Table D's data.
type LoadReport struct {
	Jobs       int
	Errors     int   // jobs whose result carried Err
	Retries    int   // submissions re-tried after a queue-full rejection
	WallNS     int64 // whole-run wall clock
	P50NS      int64 // per-job submit→result latency percentiles
	P99NS      int64
	MeanNS     int64
	Throughput float64 // completed jobs per wall second
	Rows       []MixRow
	Accepted   int64 // coordinator counters, when available
	Rejected   int64
}

// RunLoad drives cfg.Jobs jobs of Table D's mix through the client and
// aggregates Table D. Queue-full rejections back off and retry (the load
// generator is a patient client); any other rejection fails the run — it
// means the mix itself is invalid.
func RunLoad(cl *Client, cfg LoadConfig) (*LoadReport, error) {
	conc := cfg.Concurrency
	if conc <= 0 {
		conc = 8
	}
	if conc > cfg.Jobs {
		conc = cfg.Jobs
	}
	type outcome struct {
		mix     int
		res     wire.JobResult
		wall    time.Duration
		retries int
	}
	outcomes := make([]outcome, cfg.Jobs)
	var firstErr error
	var errMu sync.Mutex
	idx := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errMu.Lock()
				failed := firstErr != nil
				errMu.Unlock()
				if failed {
					continue // drain the channel so the dispatcher never blocks
				}
				mi := i % len(tableDMix)
				t0 := time.Now()
				retries := 0
				var res wire.JobResult
				ok := true
				for {
					j, err := cl.Submit(tableDMix[mi])
					if err != nil {
						if errors.Is(err, ErrQueueFull) {
							retries++
							time.Sleep(time.Duration(1+retries) * time.Millisecond)
							continue
						}
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						ok = false
						break
					}
					res = j.Wait()
					break
				}
				if ok {
					outcomes[i] = outcome{mix: mi, res: res, wall: time.Since(t0), retries: retries}
				}
			}
		}()
	}
	for i := 0; i < cfg.Jobs; i++ {
		errMu.Lock()
		failed := firstErr != nil
		errMu.Unlock()
		if failed {
			break
		}
		idx <- i
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	wall := time.Since(start)

	rep := &LoadReport{Jobs: cfg.Jobs, WallNS: int64(wall)}
	rows := make([]MixRow, len(tableDMix))
	for mi, spec := range tableDMix {
		sys := spec.System
		if sys == "" {
			sys = "tmk"
		}
		rows[mi] = MixRow{
			App: spec.App, Set: spec.Set, System: sys, Procs: spec.Procs,
			Consistent: true,
		}
	}
	lats := make([]time.Duration, 0, cfg.Jobs)
	var latSum time.Duration
	for _, o := range outcomes {
		r := &rows[o.mix]
		r.Jobs++
		rep.Retries += o.retries
		lats = append(lats, o.wall)
		latSum += o.wall
		if o.res.Err != "" {
			rep.Errors++
			r.Errs++
			continue
		}
		if r.Jobs-r.Errs == 1 { // first success defines the entry's expected values
			r.Checksum, r.VirtualNS = o.res.Checksum, o.res.VirtualNS
			continue
		}
		if o.res.Checksum != r.Checksum || o.res.VirtualNS != r.VirtualNS {
			r.Consistent = false
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) int64 {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return int64(lats[i])
	}
	rep.P50NS, rep.P99NS = pct(0.50), pct(0.99)
	if len(lats) > 0 {
		rep.MeanNS = int64(latSum) / int64(len(lats))
	}
	if wall > 0 {
		rep.Throughput = float64(cfg.Jobs) / wall.Seconds()
	}
	rep.Rows = rows
	return rep, nil
}

// FormatTableD renders the service load table: the deterministic
// per-mix columns first, then the wall-clock service metrics. The
// deterministic half is also available alone (FormatTableDGolden) for
// golden pinning — wall latency is real time and never golden-pinned.
func FormatTableD(rep *LoadReport) string {
	var b strings.Builder
	b.WriteString(FormatTableDGolden(rep))
	fmt.Fprintf(&b, "\nservice: %d jobs in %v  p50 %v  p99 %v  mean %v  %.1f jobs/s  %d retries  %d errors\n",
		rep.Jobs, time.Duration(rep.WallNS).Round(time.Millisecond),
		time.Duration(rep.P50NS).Round(time.Microsecond),
		time.Duration(rep.P99NS).Round(time.Microsecond),
		time.Duration(rep.MeanNS).Round(time.Microsecond),
		rep.Throughput, rep.Retries, rep.Errors)
	return b.String()
}

// FormatTableDGolden renders only Table D's deterministic columns: mix
// shape, completed job count, per-entry checksum, per-entry virtual
// time, and the consistency verdict. Byte-stable across
// runs, machines, and pool topologies — the svc golden test pins it.
func FormatTableDGolden(rep *LoadReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table D: DSM-as-a-service load mix (deterministic columns)\n")
	fmt.Fprintf(&b, "%-8s %-6s %-8s %5s %6s %6s %18s %14s %s\n",
		"app", "set", "system", "procs", "jobs", "errs", "checksum", "virtual", "consistent")
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "%-8s %-6s %-8s %5d %6d %6d %18.6f %14d %t\n",
			r.App, r.Set, r.System, r.Procs, r.Jobs, r.Errs, r.Checksum, r.VirtualNS, r.Consistent)
	}
	return b.String()
}
