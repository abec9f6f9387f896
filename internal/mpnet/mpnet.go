// Package mpnet runs the message-passing layer (package mp) as a real
// distributed system: one OS process per rank, spawned by a coordinator
// and connected to its switch over loopback sockets, exchanging frames in
// the wire format (package wire).
//
// This is the deployment shape of the paper's PVMe programs — genuinely
// share-nothing processes communicating only by messages — and the proof
// that the mp programming layer has no hidden in-memory couplings: the
// same application code runs unmodified against a socket-backed transport
// in another process.
//
// The deployment is a configuration of the rank-routed wire stack in
// package host (DESIGN.md §3). The coordinator is a host.Switch plus
// process spawn plus a replay log: it spawns workers (the sdsm-node
// binary, or a re-exec of the current executable), lets the switch pair
// them and route frames between them by destination rank, and — through
// the switch's per-frame tap — accounts traffic and collects each
// worker's final virtual clock and checksum contribution. A worker
// process is one host.Endpoint: it dials in, identifies itself (hello),
// receives its run configuration (start), re-derives the problem
// parameters deterministically from it, runs the application's MP
// function against a single-processor Host and a host.Mailbox whose
// sends are the endpoint's, and reports its result (done).
//
// With Options.Recover set, the coordinator is also a pessimistic
// message logger: every frame delivered to a worker — the start frame
// included — is copied into that worker's inbound log before it is
// enqueued, and the number of frames routed from each worker is
// counted. When a worker process dies mid-run, the coordinator reaps
// it, respawns the rank, replays its whole inbound log, and suppresses
// the first sent-count outbound frames the replayed process re-emits.
// This works because a worker is deterministic given its inbound frame
// sequence: its parameters are re-derived from the start frame, its
// receives are selective by (sender, tag) over per-pair FIFO channels,
// and its clock advances only by cost charges and received arrival
// stamps — so re-execution reproduces the lost process exactly,
// including the frames it had already sent (DESIGN.md §10).
//
// Timing note: virtual clocks are maintained per worker with the same
// cost model as in-process runs, and every receive names its sender, so
// no match depends on frame arrival order. Nothing here pins a worker's
// clock to the sim backend's, though: verification uses the approximate
// checksum comparison, and the deterministic tables always use the sim
// backend.
package mpnet

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"sdsm/internal/apps"
	"sdsm/internal/host"
	"sdsm/internal/model"
	"sdsm/internal/mp"
	"sdsm/internal/wire"
)

// WorkerEnv is the environment variable carrying a spawned worker's
// connection target and rank: "network;address;rank".
const WorkerEnv = "SDSM_MP_WORKER"

// maxRestarts caps worker respawns per run: a worker that dies
// deterministically on replay would otherwise crash-loop forever.
const maxRestarts = 8

// MaybeWorker turns the current process into a worker when WorkerEnv is
// set, never returning in that case. Binaries that spawn workers by
// re-executing themselves must call it first thing in main.
func MaybeWorker() {
	spec := os.Getenv(WorkerEnv)
	if spec == "" {
		return
	}
	parts := strings.SplitN(spec, ";", 3)
	if len(parts) != 3 {
		fmt.Fprintf(os.Stderr, "sdsm worker: malformed %s=%q\n", WorkerEnv, spec)
		os.Exit(2)
	}
	rank, err := strconv.Atoi(parts[2])
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdsm worker: bad rank in %s=%q\n", WorkerEnv, spec)
		os.Exit(2)
	}
	if err := RunWorker(parts[0], parts[1], rank); err != nil {
		fmt.Fprintf(os.Stderr, "sdsm worker rank %d: %v\n", rank, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// Result is the outcome of a distributed mp run.
type Result struct {
	Time     time.Duration
	Checksum float64
	Stats    host.Stats
	// Restarts counts worker processes that died and were respawned and
	// replayed (zero unless Options.Recover was set and a death occurred).
	Restarts int
}

// FaultSpec injects one worker death: rank Rank's process is killed
// after the coordinator has routed AfterFrames frames from it (zero:
// before its first frame). Requires Options.Recover.
type FaultSpec struct {
	Rank        int
	AfterFrames int
}

// Options configures a distributed run beyond the application triple.
type Options struct {
	// Overhead is the per-iteration distribution overhead of the XHPF
	// stand-in, zero for PVMe.
	Overhead time.Duration
	Verify   bool
	// NodeBin names the worker binary; empty means re-exec the current
	// executable (which must call MaybeWorker).
	NodeBin string
	// Recover arms coordinator-side crash recovery: inbound message
	// logging, and respawn-with-replay when a worker process dies.
	Recover bool
	// Fault, if set, kills one worker mid-run (requires Recover).
	Fault *FaultSpec
}

// coordinator is the state behind the switch's two hooks: tap sees every
// frame a worker sends, down every lost worker link. The per-rank slices
// indexed by sending rank (sent, skip, done) are touched only by that
// rank's router; log[r] is guarded by the switch's lock on link r.
type coordinator struct {
	opts Options
	sw   *host.Switch

	sent    []int      // frames routed from each rank
	skip    []int      // re-emitted frames still to swallow after a respawn
	done    []bool     // rank has reported (done frame or fatal error)
	log     [][][]byte // inbound replay log per rank (start frame first); Recover only
	faulted bool       // the injected kill has fired; fault rank's router only
	doneCh  chan doneMsg

	cmdMu sync.Mutex
	cmds  []*exec.Cmd

	respawnMu sync.Mutex // serializes respawns: the switch pairs by arrival order
	restarts  int        // under respawnMu

	res     *Result
	statsMu sync.Mutex
}

// RunOpts executes one mp application with one OS process per rank.
// Workers derive their entire configuration from the start frame and
// charge the SP/2 cost model (model.SP2).
func RunOpts(app *apps.App, set apps.DataSet, procs int, opts Options) (*Result, error) {
	if opts.Fault != nil && !opts.Recover {
		return nil, fmt.Errorf("mpnet: fault injection requires Recover")
	}
	if opts.Fault != nil && (opts.Fault.Rank < 0 || opts.Fault.Rank >= procs) {
		return nil, fmt.Errorf("mpnet: fault rank %d out of range", opts.Fault.Rank)
	}
	if opts.NodeBin == "" {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("mpnet: cannot locate own executable: %w", err)
		}
		opts.NodeBin = exe
	}

	co := &coordinator{
		opts:   opts,
		sent:   make([]int, procs),
		skip:   make([]int, procs),
		done:   make([]bool, procs),
		log:    make([][][]byte, procs),
		doneCh: make(chan doneMsg, procs), // every rank reports at most once
		cmds:   make([]*exec.Cmd, procs),
		res:    &Result{},
	}
	// Reap every worker on exit — normally-exited children are waited,
	// stragglers killed first. Registered before the switch's Close below
	// (defers run in reverse), so sockets and queues are already torn down
	// and no writer can block the reaping.
	defer co.killAll()
	sw, err := host.NewSwitch(procs, co.tap, co.down)
	if err != nil {
		return nil, fmt.Errorf("mpnet: %w", err)
	}
	co.sw = sw
	// Sockets close before queues: a wedged writer errors out instead of
	// blocking the join, and any frames dropped that way are addressed to
	// workers that already reported done (or are being torn down). Once
	// the switch is closing, the routers' read errors unwind them — never
	// respawn workers for a machine that no longer exists.
	defer sw.Close(false)

	for r := 0; r < procs; r++ {
		if err := co.spawn(r); err != nil {
			return nil, err
		}
	}
	// A worker binary that does not call MaybeWorker never dials in; the
	// handshake deadline turns that into a diagnosable error instead of a
	// hang.
	if err := sw.Pair(); err != nil {
		return nil, fmt.Errorf("mpnet: worker handshake (does the worker binary call mpnet.MaybeWorker?): %w", err)
	}

	// Configure every worker. The start frame heads each inbound log: a
	// replayed worker re-derives its configuration from it like a fresh
	// one.
	start := wire.Start{App: app.Name, Set: string(set), N: int32(procs), Overhead: int64(opts.Overhead), Verify: opts.Verify}
	for r := 0; r < procs; r++ {
		blob, err := wire.AppendFrame(nil, &wire.Frame{Kind: wire.FStart, To: int32(r), Payload: start})
		if err != nil {
			return nil, fmt.Errorf("mpnet: encoding start frame: %w", err)
		}
		if opts.Recover {
			co.log[r] = append(co.log[r], blob)
		}
		if err := sw.Enqueue(r, append(wire.GetBuf(), blob...)); err != nil {
			return nil, fmt.Errorf("mpnet: configuring worker %d: %w", r, err)
		}
	}

	// Route frames until every worker reports done. The first error
	// returns immediately: the deferred teardown closes the sockets,
	// which errors out any router still blocked on a read.
	if opts.Fault != nil {
		co.injectFault(opts.Fault.Rank) // AfterFrames 0: before its first frame
	}
	sw.Start()
	for i := 0; i < procs; i++ {
		d := <-co.doneCh
		if d.err != nil {
			return nil, d.err
		}
		if d.clock > co.res.Time {
			co.res.Time = d.clock
		}
		if d.rank == 0 {
			co.res.Checksum = d.sum
		}
	}
	co.respawnMu.Lock()
	co.res.Restarts = co.restarts
	co.respawnMu.Unlock()
	return co.res, nil
}

type doneMsg struct {
	rank  int
	clock time.Duration
	sum   float64
	err   error
}

// report files rank r's outcome; a rank reports once.
func (co *coordinator) report(d doneMsg) {
	co.done[d.rank] = true
	co.doneCh <- d
}

// spawn starts (or restarts) rank r's worker process.
func (co *coordinator) spawn(r int) error {
	cmd := exec.Command(co.opts.NodeBin)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s;%s;%d", WorkerEnv, co.sw.Addr().Network(), co.sw.Addr().String(), r))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("mpnet: spawning worker %d: %w", r, err)
	}
	co.cmdMu.Lock()
	co.cmds[r] = cmd
	co.cmdMu.Unlock()
	return nil
}

// kill kills rank r's worker process, if it has one.
func (co *coordinator) kill(r int) {
	co.cmdMu.Lock()
	defer co.cmdMu.Unlock()
	if c := co.cmds[r]; c != nil && c.Process != nil {
		c.Process.Kill()
	}
}

// killAll kills any worker still running and reaps every child: no
// coordinator path leaves a zombie behind.
func (co *coordinator) killAll() {
	for r := range co.cmds {
		co.kill(r)
	}
	co.cmdMu.Lock()
	defer co.cmdMu.Unlock()
	for _, c := range co.cmds {
		if c != nil {
			c.Wait()
		}
	}
}

// injectFault fires the configured worker death once the coordinator has
// routed AfterFrames frames from the fault rank r.
func (co *coordinator) injectFault(r int) {
	if f := co.opts.Fault; f != nil && f.Rank == r && !co.faulted && co.sent[r] >= f.AfterFrames {
		co.faulted = true
		co.kill(r)
	}
}

// tap is the switch's per-frame hook, run on the sending rank's router
// under the destination link's lock. It swallows the frames a replayed
// worker re-emits, takes the done report, accounts traffic, and — with
// recovery on — logs the frame before the switch enqueues it (the log
// must cover every frame the worker could ever have observed).
func (co *coordinator) tap(from int, raw []byte, kind byte, to, bytes int32) bool {
	if co.skip[from] > 0 {
		co.skip[from]--
		return false
	}
	if kind == wire.FDone {
		d := doneMsg{rank: from}
		f, _, err := wire.ParseFrame(raw)
		if err != nil {
			d.err = err
		} else if res := f.Payload.(wire.Done); res.Err != "" {
			d.err = fmt.Errorf("mpnet: rank %d failed: %s", from, res.Err)
		} else {
			d.clock, d.sum = time.Duration(f.Time), res.Checksum
		}
		co.report(d)
		return false
	}
	if kind == wire.FMsg {
		// Accounted from the raw header — the payload is forwarded
		// verbatim, never decoded here. One router goroutine runs per
		// sending rank, so the shared counters need the lock.
		co.statsMu.Lock()
		co.res.Stats.Account(int(bytes))
		co.statsMu.Unlock()
	}
	if co.opts.Recover {
		co.log[to] = append(co.log[to], append([]byte(nil), raw...))
	}
	co.sent[from]++
	co.injectFault(from)
	return true
}

// down is the switch's link-down hook, run on rank r's router. Before r
// has reported, a lost link means the worker died: with recovery on the
// rank is respawned and replayed (its fresh router swallows the frames
// the replay re-emits); otherwise the run fails. A frame the switch
// dropped on r's dead link needs no handling here — it is in r's log, and
// the replay redelivers it.
func (co *coordinator) down(r int, err error) {
	if co.done[r] || co.sw.Closing() {
		return
	}
	if co.opts.Recover {
		// Everything routed from r so far will be re-emitted by the
		// replayed process, byte-identical.
		co.skip[r] = co.sent[r]
		if err = co.respawn(r); err == nil {
			return
		}
	} else {
		err = fmt.Errorf("mpnet: rank %d link lost: %w", r, err)
	}
	co.report(doneMsg{rank: r, err: err})
}

// respawn replaces rank r's dead worker process: reap, spawn, and
// re-pair, replaying the inbound log into the new link before any
// concurrently routed frame can slip in — the switch's per-link lock
// makes replay-then-new-traffic the only observable order. Serialized so
// concurrent respawns cannot steal each other's accepted connections.
func (co *coordinator) respawn(r int) error {
	co.respawnMu.Lock()
	defer co.respawnMu.Unlock()
	if co.sw.Closing() {
		return fmt.Errorf("mpnet: rank %d died during shutdown", r)
	}
	if co.restarts++; co.restarts > maxRestarts {
		return fmt.Errorf("mpnet: rank %d died after %d restarts; giving up", r, maxRestarts)
	}
	// Reap the old child before its replacement exists: the pid slot must
	// never hold a zombie. Killed first — a link can fail under a worker
	// that is still alive.
	co.kill(r)
	co.cmdMu.Lock()
	old := co.cmds[r]
	co.cmdMu.Unlock()
	if old != nil {
		old.Wait()
	}
	if err := co.spawn(r); err != nil {
		return err
	}
	err := co.sw.Repair(r, func(q *host.FrameQueue) error {
		for _, e := range co.log[r] {
			if err := q.Enqueue(append(wire.GetBuf(), e...)); err != nil {
				return fmt.Errorf("replaying: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("mpnet: respawned rank %d: %w", r, err)
	}
	return nil
}

// RunWorker dials the coordinator and runs one rank to completion: the
// body of a worker process.
func RunWorker(network, addr string, rank int) error {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return fmt.Errorf("dialing coordinator: %w", err)
	}
	ep, err := host.NewEndpoint(conn, rank, model.SP2(), nil, nil)
	if err != nil {
		conn.Close()
		return err
	}
	defer ep.Close()
	var f wire.Frame
	if err := ep.ReadHandshake(&f); err != nil {
		return fmt.Errorf("reading start frame: %w", err)
	}
	start, ok := f.Payload.(wire.Start)
	if !ok || f.Kind != wire.FStart {
		return fmt.Errorf("expected start frame, got kind %d", f.Kind)
	}
	app, err := apps.ByName(start.App)
	if err != nil {
		return err
	}
	set := apps.DataSet(start.Set)
	if _, ok := app.Sets[set]; !ok {
		return fmt.Errorf("unknown data set %q", start.Set)
	}

	w := newWorkerWorld(ep, rank, int(start.N))
	// A panic in the rank body — a lost link included — comes back as
	// Run's error (workerHost.Run) and travels in the done report.
	var done wire.Done
	runErr := w.world.Run(func(r *mp.Rank) {
		done.Checksum = app.RunMP(r, set, time.Duration(start.Overhead), start.Verify)
	})
	if runErr != nil {
		done.Err = runErr.Error()
	}
	// The done report rides the same outbound queue as the data frames so
	// it cannot overtake them, then the queue is drained to the socket.
	err = ep.Write(&wire.Frame{Kind: wire.FDone, From: int32(rank), Time: int64(w.proc.clock), Payload: done})
	if err != nil {
		return err
	}
	return ep.Flush()
}
