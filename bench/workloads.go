package main

import (
	"fmt"

	"sdsm/internal/apps"
	"sdsm/internal/harness"
	"sdsm/internal/wire"
)

// config is one harness configuration of a workload. Its name is the
// suffix of the per-config metrics (harness.run_p50_ms.<name>).
type config struct {
	name string
	cfg  harness.Config
}

// sim reports whether the config runs on the deterministic backend, where
// every repetition must reproduce the first run bit for bit.
func (c config) sim() bool { return c.cfg.Backend == harness.BackendSim }

// spec is the config as a service job.
func (c config) spec() wire.JobSpec {
	return wire.JobSpec{
		App: c.cfg.App.Name, Set: string(c.cfg.Set), System: string(c.cfg.System),
		Backend: string(c.cfg.Backend), Procs: int32(c.cfg.Procs),
		Adapt: c.cfg.Adapt, Scale: c.cfg.Scale, Verify: true,
	}
}

// workload is one set of inputs the benchmark runs. A round runs
// configs[i] for each i of round once, in seed-shuffled order; every round
// has an odd number of ops so the pooled median falls inside one config's
// distribution instead of between two.
type workload struct {
	name    string
	why     string
	configs []config
	round   []int
	// svc routes the ops through an in-process coordinator, one client
	// connection and svcSubmitters closed-loop submitters instead of one
	// driver goroutine calling harness.Run.
	svc bool
	// adaptPair indexes the config whose plain (Adapt off) twin the traced
	// pass runs for adapt.overhead_frac; -1 when the workload has none.
	adaptPair int
}

// svcSubmitters is the closed-loop width on svc-mix: sdsm-client waits for
// its result, so callers are a closed loop, and two of them keep two
// machines alive at once on the two-core box the workloads were sized on.
const svcSubmitters = 2

func mkConfig(name, app, set string, mod func(*harness.Config)) config {
	a, err := apps.ByName(app)
	if err != nil {
		panic(fmt.Sprintf("bench: workload table names %v", err))
	}
	c := harness.Config{
		App: a, Set: apps.DataSet(set), System: harness.Base, Procs: 8,
		Backend: harness.BackendSim, Verify: true,
	}
	if mod != nil {
		mod(&c)
	}
	return config{name: name, cfg: c}
}

// The three batch workloads below run the same five applications, so they
// differ only in system or backend.
var paperFive = [][2]string{
	{"jacobi", "large"}, {"gauss", "small"}, {"is", "small"}, {"shallow", "small"}, {"fft", "small"},
}

func fiveConfigs(suffix string, mod func(*harness.Config)) []config {
	var out []config
	for _, as := range paperFive {
		out = append(out, mkConfig(as[0]+"-"+as[1]+suffix, as[0], as[1], mod))
	}
	return out
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func simBase() workload {
	return workload{
		name:      "sim-base",
		why:       "base TreadMarks on the sim backend, 8 procs: interp + sim hand-off + vm fault/twin/diff + tmk demand fetch; bypasses compiler, adapt, wire, host.Net, svc",
		configs:   fiveConfigs("-tmk", nil),
		round:     identity(5),
		adaptPair: -1,
	}
}

func simOpt() workload {
	return workload{
		name:      "sim-opt",
		why:       "the same five apps compiler-optimised: Validate/ValidateWSync/Push aggregation instead of demand faults, the host-slower-while-virtually-faster path",
		configs:   fiveConfigs("-opt", func(c *harness.Config) { c.System = harness.Opt }),
		round:     identity(5),
		adaptPair: -1,
	}
}

func simModes() workload {
	adapt := func(c *harness.Config) { c.Adapt = true }
	return workload{
		name: "sim-modes",
		why:  "tmk on sim with the opt-in modes armed (adapt, scale directory at 32 procs, checkpointing): the only workload where those layers do work",
		configs: []config{
			mkConfig("jacobi-large-adapt", "jacobi", "large", adapt),
			mkConfig("spmv-large-adapt", "spmv", "large", adapt),
			mkConfig("jacobi-bound-adapt", "jacobi", "bound", adapt),
			mkConfig("tsp-large-adapt", "tsp", "large", adapt),
			mkConfig("is-small-adapt", "is", "small", adapt),
			mkConfig("tsps-small-adapt-scale-p32", "tsps", "small", func(c *harness.Config) {
				c.Adapt, c.Scale, c.Procs = true, true, 32
			}),
			mkConfig("jacobi-small-ckpt", "jacobi", "small", func(c *harness.Config) { c.Recover = true }),
		},
		round:     identity(7),
		adaptPair: 0,
	}
}

func netBase() workload {
	return workload{
		name: "net-base",
		why:  "base TreadMarks over loopback sockets, 4 procs, same five apps: the only workload where wire, FrameQueue, host.Net and real concurrency do work, and sim does none",
		// Four nodes, not eight, so a two-core box measures the program and
		// not the scheduler; lock-heavy tsp is left out because its work is
		// schedule-dependent off sim.
		configs: fiveConfigs("-tmk", func(c *harness.Config) {
			c.Backend, c.Procs = harness.BackendNet, 4
		}),
		round:     identity(5),
		adaptPair: -1,
	}
}

func svcMix() workload {
	return workload{
		name: "svc-mix",
		why:  "Table D's job mix through an in-process coordinator and warm pool, 2 closed-loop submitters: short low-rank jobs where machine build and the control plane have their largest share",
		configs: []config{
			mkConfig("jacobi-small-p2", "jacobi", "small", func(c *harness.Config) { c.Procs = 2 }),
			mkConfig("spmv-small-scale-p4", "spmv", "small", func(c *harness.Config) { c.Procs, c.Scale = 4, true }),
			mkConfig("tsp-small-p2", "tsp", "small", func(c *harness.Config) { c.Procs = 2 }),
			mkConfig("jacobi-bound-adapt-p2", "jacobi", "bound", func(c *harness.Config) { c.Procs, c.Adapt = 2, true }),
		},
		// Table D's four job types weighted 1:3:2:1, seven jobs a round.
		// Sorted by latency that is tsp 2/7, spmv 3/7, the jacobi pair 2/7,
		// which puts the pooled median at the centre of the spmv latencies;
		// with one job of each it would sit in the gap between spmv (~25 ms)
		// and jacobi (~50 ms) and jump from one to the other run to run.
		round:     []int{0, 1, 1, 1, 2, 2, 3},
		svc:       true,
		adaptPair: 3,
	}
}

func workloads() []workload {
	return []workload{simBase(), simOpt(), simModes(), netBase(), svcMix()}
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("bench: unknown workload %q", name)
}
