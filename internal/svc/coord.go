package svc

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"

	"sdsm/internal/host"
	"sdsm/internal/wire"
)

// DefaultQueueCap bounds the coordinator's job queue when Config leaves
// it zero: submits beyond the bound are rejected immediately
// (ErrQueueFull), the admission-control half of the service contract.
const DefaultQueueCap = 64

// queueFullReason is the verdict text for a submit that found the queue
// full: written by the coordinator, recognised by Client.Submit.
const queueFullReason = "svc: queue full"

// ErrQueueFull is what Client.Submit's error wraps when the job was
// rejected because the coordinator's queue was full — the one rejection
// a patient client retries.
var ErrQueueFull = errors.New(queueFullReason)

// Config shapes one coordinator.
type Config struct {
	// Slots is the local pool's rank slot count; 0 runs a pure control plane
	// that only dispatches to attached daemons.
	Slots int
	// QueueCap bounds the pending-job queue (0 = DefaultQueueCap).
	QueueCap int
}

// StatsSnapshot is a point-in-time copy of the control-plane counters.
// Completed counts results delivered, including jobs whose Err is set;
// Failed is the part of Completed whose results carry Err.
type StatsSnapshot struct {
	Accepted, Rejected, Completed, Failed int64
}

// job is one accepted submission in flight through the queue.
type job struct {
	spec wire.JobSpec
	tag  int32 // the submitter's correlation nonce, echoed on every frame about the job
	s    *session
}

// session is the serving side of one link whose peer submits jobs: a
// client's connection, or — inside a pool daemon — the link the daemon
// dialed. Every frame it sends is an enqueue on the link's unbounded
// queue, so a peer that stops reading can park nothing but its own
// link's writer goroutine.
//
// mu is the admission lock. Queueing a job and announcing the verdict
// happen under it, and a worker takes it to send the job's result, so a
// result can never overtake the accept that announced the job. It guards
// two non-blocking enqueues (the job queue, the link's frame queue),
// never a socket write.
type session struct {
	l  *host.Link
	mu sync.Mutex
}

// result enqueues a job's result frame for the session's peer. An error
// means the peer went away; its jobs still run and their results are
// dropped here. The pool must survive its clients.
func (s *session) result(tag int32, res wire.JobResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.l.Write(&wire.Frame{Kind: wire.FJobResult, Tag: tag, Payload: res})
}

// newLink frames a control-plane connection. A failed write closes the
// socket, so the loss surfaces where every other loss does: at the
// link's one reader.
func newLink(c net.Conn) *host.Link {
	return host.NewLink(c, nil, func(error) { c.Close() })
}

// Coordinator is the multi-job control plane: it owns the bounded job
// queue, admits or rejects submissions, and dispatches accepted jobs to
// its executors — the local pool and any attached pool daemons. A
// pool daemon is itself a Coordinator: one without a listener, serving
// the single link it dialed (RunPoolDaemon).
type Coordinator struct {
	pool   *Pool
	ln     net.Listener // nil inside a pool daemon
	dir    string       // temp dir of the unix socket, "" for tcp
	jobs   chan *job
	nextID atomic.Int64

	accepted, rejected, completed, failed atomic.Int64 // Snapshot

	quit chan struct{} // closed by Close; workers watch it

	// mu guards the registry: every live link with the executor capacity
	// it contributes (a daemon's slot count, 0 for a client), and the
	// admission bound derived from it.
	mu     sync.Mutex
	links  map[*host.Link]int
	local  int // the local pool's slot count
	bound  int // largest live executor capacity, local included
	closed bool
	wg     sync.WaitGroup
}

// newCoordinator builds the queue and the local pool's workers; it
// listens on nothing.
func newCoordinator(cfg Config) *Coordinator {
	qc := cfg.QueueCap
	if qc <= 0 {
		qc = DefaultQueueCap
	}
	co := &Coordinator{
		jobs:  make(chan *job, qc),
		quit:  make(chan struct{}),
		links: map[*host.Link]int{},
		local: cfg.Slots,
		bound: cfg.Slots,
	}
	if cfg.Slots > 0 {
		co.pool = NewPool(cfg.Slots)
		co.wg.Add(cfg.Slots)
		for w := 0; w < cfg.Slots; w++ {
			go co.worker(co.pool.Run, nil)
		}
	}
	return co
}

// Start launches a coordinator on a fresh loopback listener (unix
// socket with TCP fallback, like every socket deployment in this repo).
func Start(cfg Config) (*Coordinator, error) {
	ln, dir, err := host.ListenLoopback()
	if err != nil {
		return nil, fmt.Errorf("svc: listen: %w", err)
	}
	co := newCoordinator(cfg)
	co.ln, co.dir = ln, dir
	co.wg.Add(1)
	go co.acceptLoop()
	return co, nil
}

// Addr returns the network and address clients and daemons dial.
func (co *Coordinator) Addr() (network, addr string) {
	return co.ln.Addr().Network(), co.ln.Addr().String()
}

// Snapshot copies the service counters.
func (co *Coordinator) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Accepted:  co.accepted.Load(),
		Rejected:  co.rejected.Load(),
		Completed: co.completed.Load(),
		Failed:    co.failed.Load(),
	}
}

// Close shuts the control plane down: stop accepting, sever every
// link, and wait for workers to drain. Jobs still queued are dropped
// (their clients are gone with the links).
func (co *Coordinator) Close() {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return
	}
	co.closed = true
	if co.ln != nil {
		co.ln.Close()
	}
	for l := range co.links {
		l.Close()
	}
	co.mu.Unlock()
	// The jobs channel is never closed: a racing submit may still try a
	// non-blocking send. Workers leave via quit instead.
	close(co.quit)
	co.wg.Wait()
	if co.dir != "" {
		os.RemoveAll(co.dir)
	}
}

func (co *Coordinator) acceptLoop() {
	defer co.wg.Done()
	for {
		c, err := co.ln.Accept()
		if err != nil {
			return // listener closed
		}
		l := newLink(c)
		co.mu.Lock()
		if co.closed {
			co.mu.Unlock()
			l.Close()
			return
		}
		co.links[l] = 0
		co.wg.Add(1)
		co.mu.Unlock()
		go co.serve(l)
	}
}

// dropLink retires a link.
func (co *Coordinator) dropLink(l *host.Link) {
	co.mu.Lock()
	delete(co.links, l)
	co.mu.Unlock()
	l.Close()
}

// setCap records the executor capacity l contributes — a daemon's slot
// count while it is attached, 0 from when its link ends — and makes the
// admission bound follow the live executors. Queued jobs the bound no
// longer covers are finished with a per-job error instead of waiting for
// an executor that will never come.
func (co *Coordinator) setCap(l *host.Link, slots int) {
	var orphans []*job
	co.mu.Lock()
	co.links[l] = slots
	co.bound = co.local
	for _, c := range co.links {
		co.bound = max(co.bound, c)
	}
	// Admission enqueues under mu, so nothing is added while the queue is
	// rotated once; workers may still take from it.
	for n := len(co.jobs); n > 0; n-- {
		select {
		case j := <-co.jobs:
			if int(j.spec.Procs) > co.bound {
				orphans = append(orphans, j)
			} else {
				co.jobs <- j
			}
		default:
		}
	}
	co.mu.Unlock()
	for _, j := range orphans {
		co.finish(j, wire.JobResult{ID: j.spec.ID, Err: "svc: no executor left that can hold the job"})
	}
}

// serve handles one accepted link. The first frame, read under the
// handshake deadline, declares the peer: FPoolHello attaches a daemon
// (Tag carries its slot count), FJob begins a client session. Anything
// else — silence included, and bytes that do not decode as a frame at
// all — closes the link; the pool and every other session are untouched.
func (co *Coordinator) serve(l *host.Link) {
	defer co.wg.Done()
	defer co.dropLink(l)
	var f wire.Frame
	if err := l.ReadHandshake(&f); err != nil {
		return
	}
	if f.Kind == wire.FPoolHello {
		co.attach(l, int(f.Tag))
		return
	}
	_ = co.serveJobs(l, &f)
}

// serveJobs is the session loop, entered with the peer's first frame in
// *f: every FJob it sends is admitted or rejected, until the link ends or
// it sends anything else (the returned error says which).
func (co *Coordinator) serveJobs(l *host.Link, f *wire.Frame) error {
	s := &session{l: l}
	for f.Kind == wire.FJob {
		co.submit(s, f)
		if err := l.ReadInto(f); err != nil {
			return err
		}
	}
	return fmt.Errorf("svc: frame kind %d does not belong on a job session", f.Kind)
}

// submit admits or rejects one job submission: the spec must denote a
// run, some live executor must be able to hold it, and the queue must
// have room. The bound check and the enqueue share the registry lock with
// setCap, so a job cannot slip into the queue behind the last executor
// able to run it. The enqueue and its announcement happen under the
// session's admission lock, so accept and reject frames are ordered
// before any worker traffic for the job.
func (co *Coordinator) submit(s *session, f *wire.Frame) {
	spec, ok := f.Payload.(wire.JobSpec)
	var reason string
	if !ok {
		reason = "svc: job frame carries no spec"
	} else if _, err := JobConfig(spec); err != nil {
		reason = err.Error()
	}
	spec.ID = co.nextID.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if reason == "" {
		co.mu.Lock()
		if int(spec.Procs) > co.bound {
			reason = fmt.Sprintf("svc: no executor with %d ranks (max capacity %d)", spec.Procs, co.bound)
		} else {
			select {
			case co.jobs <- &job{spec: spec, tag: f.Tag, s: s}:
			default:
				reason = queueFullReason
			}
		}
		co.mu.Unlock()
	}
	if reason != "" {
		co.rejected.Add(1)
		_ = s.l.Write(&wire.Frame{Kind: wire.FJobReject, Tag: f.Tag, Payload: wire.JobDecision{Reason: reason}})
		return
	}
	co.accepted.Add(1)
	_ = s.l.Write(&wire.Frame{Kind: wire.FJobAccept, Tag: f.Tag, Payload: wire.JobDecision{ID: spec.ID}})
}

// finish delivers a job's result to its submitter and counts it.
func (co *Coordinator) finish(j *job, res wire.JobResult) {
	co.completed.Add(1)
	if res.Err != "" {
		co.failed.Add(1)
	}
	j.s.result(j.tag, res)
}

// worker is the one worker loop: it drains the queue onto one slot of
// one executor — run is Pool.Run for the local pool, a round trip over
// the daemon's link for an attached daemon (attach) — until the
// coordinator closes or the executor is gone (nil for the local pool,
// which never leaves). One worker per slot bounds the executor's jobs in
// flight; slot acquisition inside Pool.Run enforces the per-rank
// exclusivity below that.
func (co *Coordinator) worker(run func(wire.JobSpec) wire.JobResult, gone <-chan struct{}) {
	defer co.wg.Done()
	for {
		select {
		case <-co.quit:
			return
		case <-gone:
			return
		case j := <-co.jobs:
			co.finish(j, run(j.spec))
		}
	}
}

// attach runs the coordinator's side of a pool daemon's link. The
// daemon serves the exchange a coordinator serves its clients, so the
// requester is a Client over the accepted link, and the daemon's slots
// are that many workers whose executor submits to it and waits — the
// daemon assigns its own job ID, the coordinator's is restored on the
// result. When the link ends the Client fails whatever was in flight on
// it (those jobs' results carry Err), the workers leave, and the bound
// shrinks; jobs still queued that another executor can hold stay queued.
// The pool survives its daemons. A hello outside [1, maxRanks] slots
// attaches nothing and ends the link.
func (co *Coordinator) attach(l *host.Link, slots int) {
	if slots < 1 || slots > maxRanks {
		return
	}
	cl := newClient(l, "pool daemon")
	co.setCap(l, slots)
	co.wg.Add(slots)
	for i := 0; i < slots; i++ {
		go co.worker(func(spec wire.JobSpec) wire.JobResult {
			res, err := cl.Do(spec)
			if err != nil {
				res.Err = err.Error()
			}
			res.ID = spec.ID
			return res
		}, cl.done)
	}
	<-cl.done
	co.setCap(l, 0)
}
