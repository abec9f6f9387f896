// Command sdsm-run executes one application on one system configuration
// and prints execution time, speedup, and protocol statistics:
//
//	sdsm-run -app jacobi -system opt-tmk -set large -procs 8
//	sdsm-run -app is -system tmk -set small -procs 4 -verify
//	sdsm-run -app fft -backend real -verify
//	sdsm-run -app gauss -backend net -procs 5 -verify
//	sdsm-run -app is -system pvme -backend net -verify
//	sdsm-run -app jacobi -recover -checkpoint-dir ckpt -verify
//	sdsm-run -app gauss -recover -fail-rank 1 -fail-epoch 2 -verify
//	sdsm-run -app gauss -set small -cpuprofile cpu.pprof -memprofile heap.pprof -exectrace exec.trace
//
// -backend real runs the DSM nodes as goroutines genuinely in parallel
// (results are identical to the deterministic sim backend; virtual times
// become scheduling-dependent). -backend net additionally carries every
// protocol payload over loopback sockets in the wire format; for the
// message-passing systems (pvme, xhpf) it spawns one OS process per rank
// (the sdsm-node worker, or a re-exec of this binary).
package main

import (
	"flag"
	"fmt"
	"os"

	"sdsm/internal/apps"
	"sdsm/internal/harness"
	"sdsm/internal/mpnet"
	"sdsm/internal/obs"
)

func main() {
	mpnet.MaybeWorker() // worker re-exec path; does not return if spawned
	var (
		app     = flag.String("app", "jacobi", "application: jacobi, fft, is, shallow, gauss, mgs, spmv, tsp, tsps")
		system  = flag.String("system", "opt-tmk", "system: tmk, opt-tmk, xhpf, pvme")
		set     = flag.String("set", "large", "data set: large, small (jacobi adds bound)")
		procs   = flag.Int("procs", harness.DefaultProcs, "processor count")
		verify  = flag.Bool("verify", false, "verify the result against the sequential reference")
		sync    = flag.Bool("sync", false, "force synchronous data fetching (opt-tmk only)")
		adaptOn = flag.Bool("adapt", false, "enable the run-time adaptive update protocol, barrier- and lock-scope (tmk/opt-tmk)")
		scaleOn = flag.Bool("scale", false, "enable scale mode: per-page serve delegation + span-compressed barrier relay (tmk/opt-tmk)")
		backend = flag.String("backend", "sim", "host backend: sim (deterministic), real (goroutine per node), net (wire transport over loopback sockets; process per rank for pvme/xhpf)")
		nodeBin = flag.String("node-bin", "", "worker binary for -backend net message-passing runs (default: re-exec this binary)")
		recov   = flag.Bool("recover", false, "arm checkpoint/restore: DSM nodes checkpoint at every barrier, net message-passing runs log frames for replay")
		ckDir   = flag.String("checkpoint-dir", "", "spill checkpoint records to this directory instead of holding them in memory (with -recover)")
		failAt  = flag.Int("fail-rank", -1, "inject a failure: kill this rank (-1 = no fault; implies -recover)")
		failEp  = flag.Int("fail-epoch", 1, "barrier epoch at which -fail-rank dies (DSM systems)")
		failAfr = flag.Int("fail-after", 0, "routed-frame count after which -fail-rank's process is killed (pvme/xhpf on -backend net)")
		trace   = flag.Bool("trace", false, "record a protocol event trace and the full metrics registry (tmk/opt-tmk)")
		trOut   = flag.String("trace-out", "", "write the trace as Chrome trace-event JSON, loadable in Perfetto (implies -trace)")
		trCap   = flag.Int("trace-cap", 0, "per-node trace ring capacity in events (0 = default; oldest events drop on overflow)")
		cpuProf = flag.String("cpuprofile", "", "write a host CPU profile of the run to this file (go tool pprof)")
		memProf = flag.String("memprofile", "", "write a host heap profile taken after the run to this file")
		execTr  = flag.String("exectrace", "", "write a Go execution trace of the run to this file (go tool trace)")
	)
	flag.Parse()
	harness.NodeBin = *nodeBin

	a, err := apps.ByName(*app)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdsm-run:", err)
		os.Exit(1)
	}
	ds := apps.DataSet(*set)
	if _, ok := a.Sets[ds]; !ok {
		fmt.Fprintf(os.Stderr, "sdsm-run: unknown data set %q\n", *set)
		os.Exit(1)
	}

	cfg := harness.Config{
		App: a, Set: ds, System: harness.SystemKind(*system),
		Procs: *procs, Verify: *verify, SyncFetch: *sync,
		Backend: harness.Backend(*backend),
		Adapt:   *adaptOn, Scale: *scaleOn,
		Recover: *recov, CheckpointDir: *ckDir,
		Trace: *trace || *trOut != "", TraceCap: *trCap,
	}
	if *failAt >= 0 {
		cfg.Fault = &harness.FaultPlan{Rank: *failAt, Epoch: *failEp, AfterFrames: *failAfr}
	}
	stopProf, err := obs.StartProfiles(*cpuProf, *memProf, *execTr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdsm-run:", err)
		os.Exit(1)
	}
	res, err := harness.Run(cfg)
	if err == nil {
		err = stopProf()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdsm-run:", err)
		os.Exit(1)
	}

	uni := harness.UniTime(a, ds)

	fmt.Printf("application:   %s (%s set)\n", a.Name, ds)
	shownBackend := *backend
	mpSystem := harness.SystemKind(*system) == harness.PVMe || harness.SystemKind(*system) == harness.XHPF
	if mpSystem && harness.Backend(*backend) != harness.BackendNet {
		shownBackend = string(harness.BackendSim) // in-process message passing runs on sim
	}
	if mpSystem && harness.Backend(*backend) == harness.BackendNet {
		shownBackend = "net (process per rank)"
	}
	fmt.Printf("system:        %s on %d processors (%s backend)\n", *system, *procs, shownBackend)
	fmt.Printf("time:          %v (uniprocessor %v, speedup %.2f)\n", res.Time, uni, harness.Speedup(uni, res.Time))
	// One unified metrics dump replaces the former per-subsystem stat
	// lines: every counter of the run — traffic, vm, protocol, adaptive,
	// recovery, and (when traced) the registry's histograms and backend
	// counters — through a single formatter. Zero counters are omitted,
	// so the adaptive and recovery sections appear only when armed.
	fmt.Printf("metrics:\n%s", obs.FormatSnapshot(harness.Snapshot(res), "  "))
	if *trOut != "" {
		f, err := os.Create(*trOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdsm-run:", err)
			os.Exit(1)
		}
		if err := obs.WriteTrace(f, res.Trace); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdsm-run: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace:         %s\n", *trOut)
	}
	if *verify {
		want := harness.SeqChecksum(a, ds)
		status := "OK"
		if !apps.Close(res.Checksum, want) {
			status = "MISMATCH"
		}
		fmt.Printf("verification:  %s (checksum %.6g, sequential %.6g)\n", status, res.Checksum, want)
		if status != "OK" {
			os.Exit(1)
		}
	}
}
