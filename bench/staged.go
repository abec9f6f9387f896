package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sdsm/internal/adapt"
	"sdsm/internal/apps"
	"sdsm/internal/cluster"
	"sdsm/internal/compiler"
	"sdsm/internal/harness"
	"sdsm/internal/host"
	"sdsm/internal/interp"
	"sdsm/internal/model"
	"sdsm/internal/shm"
	"sdsm/internal/sim"
	"sdsm/internal/tmk"
)

// span is one timed interval at a layer boundary, recorded from outside
// the program around a call into the layer. Spans of one op share Op;
// Parent is the ID of the span that caused this one (0 for an op's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Config  string `json:"config"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; write dumps them when the pass ends.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// newOp returns a fresh op identifier.
func (l *spanLog) newOp() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops++
	return l.ops
}

// add records one finished span and returns its ID.
func (l *spanLog) add(op, parent int, config, name string, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Op: op, Config: config, Name: name,
		StartNS: int64(start.Sub(l.epoch)), EndNS: int64(end.Sub(l.epoch)),
	})
	return len(l.spans)
}

// begin opens a span now; end closes it and returns its duration.
func (l *spanLog) begin(op, parent int, config, name string) int {
	now := time.Now()
	return l.add(op, parent, config, name, now, now)
}

func (l *spanLog) end(id int) time.Duration {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	sp := &l.spans[id-1]
	sp.EndNS = int64(now.Sub(l.epoch))
	return time.Duration(sp.EndNS - sp.StartNS)
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// The stages of the staged replica, in call order; stageRun is the only
// one that is not machine build or teardown.
const (
	stageApps = iota
	stageCompile
	stageLayout
	stageHost
	stageTmk
	stageRun
	stageTeardown
	numStages
)

var stageNames = [numStages]string{
	"apps.build", "compiler.compile", "compiler.layout", "host.new",
	"tmk.new", "interp.run", "harness.teardown",
}

// stagedResult is what the replica returns: the figures to hold against
// the untraced harness.Run, and the wall of every stage.
type stagedResult struct {
	sum   float64
	virt  time.Duration
	msgs  int64
	total time.Duration
	stage [numStages]time.Duration
}

// stagedRun is a replica of harness.runDSM built only from exported calls
// in the same order — App.Build+Prepare → compiler.Compile →
// compiler.BuildLayout → sim.NewEngine/host.NewNet+cluster.New →
// tmk.NewWarm+Enable* → interp.RunDSM → Stats/Close — with a span around
// each. Its checksum and virtual time must equal the untraced run's; the
// caller checks. It covers what the workloads use: the sim and net
// backends, adapt, scale and fault-free checkpointing.
func stagedRun(c config, log *spanLog) (*stagedResult, error) {
	cfg := c.cfg
	op := log.newOp()
	out := &stagedResult{}
	root := log.begin(op, 0, c.name, "harness.run")
	cur := log.begin(op, root, c.name, stageNames[0])
	// stage closes stage s's span and opens the next one's.
	stage := func(s int) {
		out.stage[s] = log.end(cur)
		if s+1 < numStages {
			cur = log.begin(op, root, c.name, stageNames[s+1])
		}
	}
	costs := model.SP2()

	prog := cfg.App.Build(cfg.Procs)
	params := prog.Prepare(cfg.App.Sets[cfg.Set], cfg.Procs)
	stage(stageApps)

	if cfg.System == harness.Opt {
		prog, _ = compiler.Compile(prog, cfg.App.BestOptions(cfg.Procs, params))
	}
	stage(stageCompile)

	layout := compiler.BuildLayout(prog, params)
	stage(stageLayout)

	var h host.Host
	var nw host.Transport
	switch cfg.Backend {
	case harness.BackendNet:
		n, err := host.NewNet(cfg.Procs, costs)
		if err != nil {
			return nil, fmt.Errorf("staged %s: net backend: %w", c.name, err)
		}
		defer n.Close()
		h, nw = n, n
	case harness.BackendSim:
		e := sim.NewEngine(cfg.Procs)
		h, nw = e, cluster.New(e, costs)
	default:
		return nil, fmt.Errorf("staged %s: backend %q has no workload", c.name, cfg.Backend)
	}
	stage(stageHost)

	sys := tmk.NewWarm(h, nw, layout, nil)
	if cfg.Adapt {
		sys.EnableAdapt(adapt.Config{})
	}
	if cfg.Scale {
		sys.EnableScale()
	}
	if cfg.Recover {
		sys.EnableRecovery(tmk.RecoveryConfig{})
		if n, ok := nw.(*host.Net); ok {
			n.EnableRecovery()
		}
	}
	stage(stageTmk)

	arr := layout.Array(cfg.App.CheckArray)
	err := interp.RunDSM(prog, sys, params, func(nd *tmk.Node) {
		// As harness.runDSM's verify epilogue: a barrier restores global
		// consistency after a trailing Push, then node 0 reads everything.
		nd.Barrier(1 << 20)
		if nd.ID != 0 {
			return
		}
		nd.Validate(tmk.AccRead, []shm.Region{arr.Whole()}, false)
		nd.Mem.EnsureRead(nd.Proc(), arr.Whole())
		out.sum = apps.Checksum(layout, nd.Mem.Data(), cfg.App.CheckArray)
	})
	stage(stageRun)
	if err != nil {
		return nil, fmt.Errorf("staged %s: %w", c.name, err)
	}

	out.msgs = nw.Stats().Msgs
	sys.Stats()
	sys.ServeBalance()
	out.virt = sys.MaxTime()
	if n, ok := nw.(*host.Net); ok {
		n.Close() // inside the teardown span; the deferred Close is then a no-op
	}
	stage(stageTeardown)

	out.total = log.end(root)
	return out, nil
}
