package svc

import (
	"fmt"
	"net"
	"sync"

	"sdsm/internal/host"
	"sdsm/internal/wire"
)

// Client is the requesting side of one link: a submitter's connection to
// a coordinator, or a coordinator's accepted link to a pool daemon — the
// exchange is the same. It multiplexes any number of concurrent
// submissions: each submit carries a link-local nonce the server echoes
// on the accept/reject verdict, and the result frame carries both the
// nonce and the job ID. A job is three frames: submit, verdict, result.
// Safe for concurrent use.
type Client struct {
	l    *host.Link
	peer string // what the far end is, for error text

	mu      sync.Mutex
	nextTag int32
	pending map[int32]*Job // submitted, verdict not yet read
	active  map[int64]*Job // accepted, result not yet read
	err     error          // sticky: the reader's exit cause
	done    chan struct{}  // closed when the reader exits
}

// Job is one accepted submission.
type Job struct {
	ID int64

	decided chan struct{} // accept or reject read
	reason  string        // non-empty: rejected
	result  chan wire.JobResult
}

// Dial connects to a coordinator (address from Coordinator.Addr). The
// coordinator waits for a connection's first frame only as long as the
// handshake deadline: dial when there is a job to submit.
func Dial(network, addr string) (*Client, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("svc: dial coordinator: %w", err)
	}
	return newClient(newLink(c), "coordinator"), nil
}

// newClient starts the requester on l; its reader is l's one reader from
// here on.
func newClient(l *host.Link, peer string) *Client {
	cl := &Client{
		l:       l,
		peer:    peer,
		pending: map[int32]*Job{},
		active:  map[int64]*Job{},
		done:    make(chan struct{}),
	}
	go cl.reader()
	return cl
}

// Close severs the connection. In-flight jobs fail with the close.
func (cl *Client) Close() error {
	err := cl.l.Close()
	<-cl.done
	return err
}

// reader demultiplexes the server's frames: verdicts route by nonce,
// results by job ID. It owns the pending/active maps'
// mutations past submission, so verdict routing can atomically promote
// a pending job to active before any later frame about it is read —
// frames for one job are ordered on the wire. When the link ends, every
// job still in either table fails with the loss.
func (cl *Client) reader() {
	defer close(cl.done)
	var f wire.Frame
	for {
		if err := cl.l.ReadInto(&f); err != nil {
			cl.mu.Lock()
			cl.err = fmt.Errorf("svc: %s connection lost: %w", cl.peer, err)
			for tag, j := range cl.pending {
				delete(cl.pending, tag)
				j.reason = cl.err.Error()
				close(j.decided)
			}
			for id, j := range cl.active {
				delete(cl.active, id)
				j.result <- wire.JobResult{ID: j.ID, Err: cl.err.Error()}
			}
			cl.mu.Unlock()
			return
		}
		// Frames route by payload type; Kind only tells the two verdicts
		// apart. Deliveries happen under mu and cannot block: the reader is
		// each channel's only sender, and a job gets one verdict and one
		// result (it leaves its table on the first).
		cl.mu.Lock()
		switch p := f.Payload.(type) {
		case *wire.JobDecision:
			if j := cl.pending[f.Tag]; j != nil {
				delete(cl.pending, f.Tag)
				if f.Kind == wire.FJobAccept {
					j.ID = p.ID
					cl.active[p.ID] = j
				} else {
					j.reason = p.Reason
				}
				close(j.decided)
			}
		case *wire.JobResult:
			if j := cl.active[p.ID]; j != nil {
				delete(cl.active, p.ID)
				j.result <- *p
			}
		}
		cl.mu.Unlock()
	}
}

// Submit sends one job and waits for the coordinator's admission
// verdict: an accepted *Job to wait on, or the rejection reason as an
// error (errors.Is(err, ErrQueueFull) when the queue was full).
// Rejection is a per-job verdict — the client stays usable.
func (cl *Client) Submit(spec wire.JobSpec) (*Job, error) {
	j := &Job{
		decided: make(chan struct{}),
		result:  make(chan wire.JobResult, 1),
	}
	// The submit frame is enqueued under mu, so the reader cannot look for
	// the job before it is registered.
	cl.mu.Lock()
	err := cl.err
	if err == nil {
		cl.nextTag++
		err = cl.l.Write(&wire.Frame{Kind: wire.FJob, Tag: cl.nextTag, Payload: &spec})
	}
	if err == nil {
		cl.pending[cl.nextTag] = j
	}
	cl.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("svc: submit: %w", err)
	}
	<-j.decided
	switch j.reason {
	case "":
		return j, nil
	case queueFullReason:
		return nil, fmt.Errorf("svc: job rejected: %w", ErrQueueFull)
	}
	return nil, fmt.Errorf("svc: job rejected: %s", j.reason)
}

// Wait blocks until the job's result frame arrives. A job that failed
// (or whose coordinator vanished) reports through the result's Err.
func (j *Job) Wait() wire.JobResult {
	return <-j.result
}

// Do submits a job and waits for its result.
func (cl *Client) Do(spec wire.JobSpec) (wire.JobResult, error) {
	j, err := cl.Submit(spec)
	if err != nil {
		return wire.JobResult{}, err
	}
	return j.Wait(), nil
}
