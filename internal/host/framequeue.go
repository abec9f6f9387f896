package host

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"

	"sdsm/internal/obs"
	"sdsm/internal/wire"
)

// FrameQueue is the per-connection outbound half of the zero-allocation
// wire path: an unbounded FIFO of encoded frames. A frame enqueued on an
// idle queue — nothing queued, nothing in flight — is written inline, on
// the caller's goroutine, by one non-blocking write to the socket; a
// frame that finds a backlog, or that the socket did not take whole,
// goes to the queue's writer goroutine, which coalesces everything queued
// at its wakeup into one scatter-gather write (net.Buffers, a writev on
// socket conns). So an idle connection costs one syscall per frame and
// wakes no goroutine, and a flurry (grants, departures, diff replies,
// adaptive updates queued behind a full socket buffer) costs one syscall
// per flush.
//
// Contract:
//
//   - Enqueue takes ownership of raw: the queue recycles it with
//     wire.PutBuf after the write, so callers must encode into pooled
//     storage (wire.GetBuf) and never touch the slice again.
//   - Enqueue never blocks on a full socket buffer: the inline write is
//     non-blocking, and what it leaves is the writer's.
//   - Frames enqueued on one queue are written in FIFO order: an inline
//     write happens only on an idle queue, and the unwritten rest of a
//     frame it starts goes to the head of the queue. No cross-queue
//     ordering is promised.
//   - Coalescing moves bytes, not time: all virtual-time charges and
//     arrival stamps are fixed by the sender before Enqueue, so batching
//     is invisible to the cost model (DESIGN.md, "Zero-allocation wire
//     path").
//
// Failure: the first write error is latched — by the writer goroutine
// only: an inline write that fails for any reason leaves its frame to the
// writer, whose own write meets the error. The queue calls onErr once
// (from the writer goroutine), drops subsequent frames, and every later
// Enqueue returns the latched error so protocol callers can unwind. A
// short vectored write without an error — which would leave a frame
// split mid-stream and desynchronize the connection — latches
// io.ErrShortWrite the same way. Frames dropped after a failure are
// counted, and Close reports the count: a shutdown that lost frames is
// loud, never silent.
//
// A connection that is not a syscall.Conn (net.Pipe, test doubles), or
// any connection off unix (writeFD), has no inline path: every frame goes
// through the writer goroutine.
type FrameQueue struct {
	w     net.Conn
	onErr func(error)

	// rc is w's raw connection, nil when w is not a syscall.Conn. The
	// inline write hands it writeOnce, made once per queue, which writes
	// inbuf with one attempt and leaves the bytes written in inN (0 on any
	// error); both are guarded by mu.
	rc        syscall.RawConn
	writeOnce func(fd uintptr) bool
	inbuf     []byte
	inN       int

	mu       sync.Mutex
	cond     *sync.Cond
	q        [][]byte
	headOff  int // bytes of q[0] an inline write already put on the wire
	inflight int
	err      error
	dropped  int // frames recycled unwritten after err latched
	closed   bool
	done     chan struct{}

	// frames/flushes, when non-nil, count written frames and flushes (an
	// inline write is one of each) for the observability layer (SetObs).
	// Nil when tracing is off: the write paths then perform no extra work.
	frames  *obs.Counter
	flushes *obs.Counter
}

// SetObs attaches frame/flush counters (observability only).
func (fq *FrameQueue) SetObs(frames, flushes *obs.Counter) {
	fq.mu.Lock()
	fq.frames, fq.flushes = frames, flushes
	fq.mu.Unlock()
}

// errQueueClosed is returned by Enqueue after Close.
var errQueueClosed = errors.New("host: frame queue closed")

// NewFrameQueue starts a queue draining into w. onErr (optional) is
// invoked once, from the writer goroutine, when a write first fails.
func NewFrameQueue(w net.Conn, onErr func(error)) *FrameQueue {
	fq := &FrameQueue{w: w, onErr: onErr, done: make(chan struct{})}
	fq.cond = sync.NewCond(&fq.mu)
	if sc, ok := w.(syscall.Conn); ok {
		if rc, err := sc.SyscallConn(); err == nil {
			fq.rc = rc
			fq.writeOnce = func(fd uintptr) bool {
				if n, err := writeFD(fd, fq.inbuf); err == nil {
					fq.inN = n
				}
				return true // one attempt: never wait for the socket to drain
			}
		}
	}
	go fq.writerLoop()
	return fq
}

// Enqueue hands one encoded frame to the connection, transferring
// ownership of raw to the queue: written inline when the queue is idle
// and the socket takes it whole, queued for the writer goroutine
// otherwise. It returns the latched write error, if any — the frame is
// dropped (and recycled) in that case.
func (fq *FrameQueue) Enqueue(raw []byte) error {
	fq.mu.Lock()
	if fq.err != nil || fq.closed {
		err := fq.err
		fq.mu.Unlock()
		wire.PutBuf(raw)
		if err == nil {
			err = errQueueClosed
		}
		return err
	}
	if fq.rc != nil && len(fq.q) == 0 && fq.inflight == 0 {
		// One non-blocking write. What it leaves — the whole frame on a
		// full socket buffer or any error, the rest after a partial
		// write — is the writer goroutine's, which meets the same error
		// and latches it.
		fq.inbuf, fq.inN = raw, 0
		if fq.rc.Write(fq.writeOnce) == nil && fq.inN == len(raw) {
			fq.frames.Inc()
			fq.flushes.Inc()
			fq.mu.Unlock()
			wire.PutBuf(raw)
			return nil
		}
		fq.headOff = fq.inN
	}
	fq.q = append(fq.q, raw)
	fq.cond.Signal()
	fq.mu.Unlock()
	return nil
}

// Flush blocks until every frame enqueued so far has been handed to the
// connection (or a write error is latched, which it returns).
func (fq *FrameQueue) Flush() error {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	for (len(fq.q) > 0 || fq.inflight > 0) && fq.err == nil {
		fq.cond.Wait()
	}
	return fq.err
}

// Close drains the queue (pending frames are still written, unless an
// error is latched, in which case they are dropped), stops the writer
// goroutine, and waits for it. It returns the latched write error,
// wrapped with the number of frames that were dropped unwritten, so a
// lossy shutdown cannot pass silently. Idempotent; it does not close
// the underlying connection.
func (fq *FrameQueue) Close() error {
	fq.mu.Lock()
	if !fq.closed {
		fq.closed = true
		fq.cond.Broadcast()
	}
	fq.mu.Unlock()
	<-fq.done
	fq.mu.Lock()
	defer fq.mu.Unlock()
	if fq.err != nil && fq.dropped > 0 {
		return fmt.Errorf("host: frame queue dropped %d frame(s): %w", fq.dropped, fq.err)
	}
	return fq.err
}

// writerLoop drains the whole queue per wakeup into one vectored write.
// The queue slice and the batch slice are double-buffered (swapped each
// round) and the net.Buffers header slice is rebuilt from scratch
// storage, so a steady-state flush allocates nothing.
func (fq *FrameQueue) writerLoop() {
	defer close(fq.done)
	var batch [][]byte
	var scratch [][]byte
	// bufs lives outside the loop: WriteTo takes its address, which would
	// heap-allocate the slice header on every flush if it were loop-local.
	var bufs net.Buffers
	failed := false
	fq.mu.Lock()
	for {
		for len(fq.q) == 0 && !fq.closed {
			fq.cond.Wait()
		}
		if len(fq.q) == 0 { // closed and drained
			fq.mu.Unlock()
			return
		}
		batch, fq.q = fq.q, batch[:0]
		off := fq.headOff
		fq.headOff = 0
		fq.inflight = len(batch)
		fq.frames.Add(int64(len(batch)))
		fq.flushes.Inc()
		fq.mu.Unlock()

		lost := len(batch) // frames not (fully) written this round
		if !failed {
			// WriteTo consumes its receiver — on partial writes it
			// advances the slice entries in place — so it runs on a
			// scratch copy of the headers; batch keeps the originals
			// for recycling.
			scratch = append(scratch[:0], batch...)
			scratch[0] = scratch[0][off:]
			var total int64
			for _, b := range scratch {
				total += int64(len(b))
			}
			bufs = net.Buffers(scratch)
			n, err := bufs.WriteTo(fq.w)
			if err == nil && n != total {
				// A writer that stops short without erroring would leave
				// the last frame split mid-stream; treat it as a failure
				// so the connection is abandoned, not desynchronized.
				err = io.ErrShortWrite
			}
			if err != nil {
				failed = true
				fq.mu.Lock()
				fq.err = err
				fq.cond.Broadcast()
				fq.mu.Unlock()
				if fq.onErr != nil {
					fq.onErr(err)
				}
			} else {
				lost = 0
			}
		}
		for i, b := range batch {
			wire.PutBuf(b)
			batch[i] = nil
		}
		fq.mu.Lock()
		fq.dropped += lost
		fq.inflight = 0
		fq.cond.Broadcast()
	}
}
