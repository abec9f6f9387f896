// Command sdsm-experiments regenerates every table and figure of the
// paper's evaluation on the simulated platform:
//
//	sdsm-experiments -all
//	sdsm-experiments -table1 -fig5 -procs 8
//	sdsm-experiments -all -parallel 8
//	sdsm-experiments -fig7 -backend net
//
// Every experiment is a self-contained simulation, so -parallel N fans
// independent runs across N workers: virtual-time numbers are unchanged,
// only wall-clock time drops (see EXPERIMENTS.md for a reference run).
// -backend real/net runs the underlying machines on the concurrent
// backends instead; results stay verified but times become
// scheduling-dependent, so the deterministic tables require the default
// sim backend.
//
// -serve runs the DSM-as-a-service load experiment instead: it starts
// an in-process coordinator with a warm pool, drives a mixed job load
// through the client API, and prints Table D (per-mix deterministic
// columns plus service latency/throughput). -serve-jobs sizes the load,
// -serve-json writes the machine-readable report, and -serve-p99-max
// turns the run into a latency gate.
//
// The output prints measured values next to the paper's where applicable;
// EXPERIMENTS.md discusses the comparisons.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"sdsm/internal/harness"
	"sdsm/internal/mpnet"
	"sdsm/internal/obs"
	"sdsm/internal/svc"
)

func main() {
	mpnet.MaybeWorker() // worker re-exec path; does not return if spawned
	var (
		all       = flag.Bool("all", false, "run every experiment")
		serve     = flag.Bool("serve", false, "run the DSM-as-a-service load experiment and print Table D")
		srvListen = flag.Bool("serve-listen", false, "with -serve: skip the load run, print the coordinator address, and serve sdsm-client/sdsm-node -pool peers until interrupted")
		srvJobs   = flag.Int("serve-jobs", 200, "total jobs for the -serve load run")
		srvConc   = flag.Int("serve-conc", 8, "concurrent in-flight submissions for -serve")
		srvSlots  = flag.Int("serve-slots", 8, "warm pool slots for the -serve coordinator")
		srvJSON   = flag.String("serve-json", "", "write the -serve load report as JSON to this file")
		srvP99    = flag.Duration("serve-p99-max", 0, "fail -serve if p99 job latency exceeds this bound (0 disables)")
		procs     = flag.Int("procs", harness.DefaultProcs, "processor count")
		par       = flag.Int("parallel", 1, "worker pool size for independent experiment runs (0 = GOMAXPROCS)")
		backend   = flag.String("backend", "sim", "host backend for the runs: sim (deterministic paper numbers), real, net (times become scheduling-dependent)")
		cpuProf   = flag.String("cpuprofile", "", "write a host CPU profile of the selected experiments to this file (go tool pprof)")
		memProf   = flag.String("memprofile", "", "write a host heap profile taken after the last experiment to this file")
		execTr    = flag.String("exectrace", "", "write a Go execution trace of the selected experiments to this file (go tool trace)")
	)
	// One flag per harness.Experiments entry (an entry riding another's
	// flag — Table B under -adapt — shares its switch).
	picked := map[string]*bool{}
	for _, e := range harness.Experiments {
		if e.With == "" {
			picked[e.Name] = flag.Bool(e.Name, false, e.Help)
		}
	}
	flag.Parse()
	workers := *par
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	switch harness.Backend(*backend) {
	case harness.BackendSim, harness.BackendReal, harness.BackendNet:
		harness.DefaultBackend = harness.Backend(*backend)
	default:
		fmt.Fprintf(os.Stderr, "sdsm-experiments: unknown backend %q\n", *backend)
		os.Exit(2)
	}
	if harness.DefaultBackend != harness.BackendSim {
		fmt.Printf("note: %s backend — virtual times are scheduling-dependent; the paper's\n"+
			"deterministic numbers require the sim backend (the default).\n\n", *backend)
	}
	chosen := *all || *serve
	for _, on := range picked {
		chosen = chosen || *on
	}
	if !chosen {
		flag.Usage()
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "sdsm-experiments:", err)
		os.Exit(1)
	}
	stopProf, err := obs.StartProfiles(*cpuProf, *memProf, *execTr)
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fail(err)
		}
	}()

	if *serve {
		// The service experiment: a warm-pool coordinator, a mixed load
		// (regular and irregular apps, protocol modes on and off, mixed rank
		// counts), and Table D from the aggregate. The deterministic columns
		// are golden-pinned in internal/svc; here the wall-clock half — p50,
		// p99, throughput — is the measurement, and -serve-p99-max makes it
		// a CI gate.
		co, err := svc.Start(svc.Config{Slots: *srvSlots})
		if err != nil {
			fail(err)
		}
		if *srvListen {
			// Interactive service mode: no load run, just a live coordinator
			// for sdsm-client submissions and sdsm-node -pool attachments.
			network, address := co.Addr()
			fmt.Printf("service listening: -network %s -addr %s  (%d local slots; ctrl-c to stop)\n",
				network, address, *srvSlots)
			sig := make(chan os.Signal, 1)
			signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
			<-sig
			snap := co.Snapshot()
			co.Close()
			fmt.Printf("service stopped: %d accepted, %d rejected, %d completed, %d failed\n",
				snap.Accepted, snap.Rejected, snap.Completed, snap.Failed)
			return
		}
		cl, err := svc.Dial(co.Addr())
		if err != nil {
			co.Close()
			fail(err)
		}
		rep, err := svc.RunLoad(cl, svc.LoadConfig{
			Jobs:        *srvJobs,
			Concurrency: *srvConc,
		})
		snap := co.Snapshot()
		cl.Close()
		co.Close()
		if err != nil {
			fail(err)
		}
		rep.Accepted, rep.Rejected = snap.Accepted, snap.Rejected
		fmt.Println(svc.FormatTableD(rep))
		if *srvJSON != "" {
			data, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				fail(err)
			}
			if err := os.WriteFile(*srvJSON, append(data, '\n'), 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("wrote load report to %s\n", *srvJSON)
		}
		bad := false
		for _, r := range rep.Rows {
			if !r.Consistent {
				fmt.Fprintf(os.Stderr, "sdsm-experiments: %s/%s jobs disagree on checksum or virtual time\n", r.App, r.Set)
				bad = true
			}
		}
		if rep.Errors > 0 {
			fmt.Fprintf(os.Stderr, "sdsm-experiments: %d job(s) failed under load\n", rep.Errors)
			bad = true
		}
		if *srvP99 > 0 && rep.P99NS > int64(*srvP99) {
			fmt.Fprintf(os.Stderr, "sdsm-experiments: p99 job latency %v exceeds bound %v\n",
				time.Duration(rep.P99NS), *srvP99)
			bad = true
		}
		if bad {
			os.Exit(1)
		}
	}

	for _, e := range harness.Experiments {
		if *all || *picked[cmp.Or(e.With, e.Name)] {
			out, err := e.Run(*procs, workers)
			if err != nil {
				fail(err)
			}
			fmt.Println(out)
		}
	}
}
