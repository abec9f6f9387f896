//go:build unix

package host

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"sdsm/internal/leaktest"
	"sdsm/internal/obs"
	"sdsm/internal/wire"
)

// unixPair returns the two ends of a connected unix stream socket: real
// sockets, so a FrameQueue on either takes its inline path.
func unixPair(t *testing.T) (a, b *net.UnixConn) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn := func(fd int) *net.UnixConn {
		f := os.NewFile(uintptr(fd), "socketpair")
		defer f.Close()
		c, err := net.FileConn(f)
		if err != nil {
			t.Fatal(err)
		}
		return c.(*net.UnixConn)
	}
	return conn(fds[0]), conn(fds[1])
}

// seqFrame encodes frame seq of a stream: its tag is seq, and its
// payload (8 KB) is larger than the smallest socket send buffer, so a
// write into a nearly full socket is cut short.
func seqFrame(t *testing.T, seq int) []byte {
	t.Helper()
	vals := make(wire.Float64s, 1000)
	for i := range vals {
		vals[i] = float64(seq*1000 + i)
	}
	raw, err := wire.AppendFrame(wire.GetBuf(), &wire.Frame{Kind: wire.FMsg, From: 0, To: 1, Tag: int32(seq), Payload: vals})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// readSeq reads n frames from c and requires them to be frames 0..n-1 of
// seqFrame's stream, whole and in order. It runs on its own goroutine, so
// it reports with t.Error, and on a failure it closes c, so the writer
// fails too instead of waiting for a reader that is gone.
func readSeq(t *testing.T, c net.Conn, n int) {
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr := wire.NewFrameReader(c)
	for i := 0; i < n; i++ {
		raw, err := fr.ReadRaw()
		if err != nil {
			t.Errorf("frame %d: %v", i, err)
			c.Close()
			return
		}
		want := seqFrame(t, i)
		if !bytes.Equal(raw, want) {
			t.Errorf("frame %d arrived as %d bytes unlike the %d sent", i, len(raw), len(want))
			c.Close()
			return
		}
		wire.PutBuf(want)
	}
}

// backlogged reports whether fq has frames waiting for its writer.
func backlogged(fq *FrameQueue) bool {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	return len(fq.q) > 0 || fq.inflight > 0
}

// TestFrameQueueInlineWrites: on an idle queue over a real socket, a
// frame is written by Enqueue itself — the frame counter has moved before
// Enqueue returns, which the writer goroutine could not have done in
// time — and arrives whole. The peer reads each frame before the next is
// sent, so every Enqueue finds an empty socket.
func TestFrameQueueInlineWrites(t *testing.T) {
	leaktest.Check(t)
	a, b := unixPair(t)
	defer b.Close()
	defer a.Close()
	fq := NewFrameQueue(a, func(err error) { t.Errorf("write failed: %v", err) })
	defer fq.Close()
	reg := obs.NewRegistry()
	frames, flushes := reg.Counter("frames"), reg.Counter("flushes")
	fq.SetObs(frames, flushes)
	b.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr := wire.NewFrameReader(b)
	for i := 0; i < 50; i++ {
		want := seqFrame(t, i)
		if err := fq.Enqueue(append(wire.GetBuf(), want...)); err != nil {
			t.Fatal(err)
		}
		if got := frames.Value(); got != int64(i+1) {
			t.Fatalf("after Enqueue of frame %d, %d frames were written: it was not written inline", i, got)
		}
		raw, err := fr.ReadRaw()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("frame %d arrived as %d bytes unlike the %d sent", i, len(raw), len(want))
		}
		wire.PutBuf(want)
	}
	if err := fq.Close(); err != nil {
		t.Fatal(err)
	}
	if frames.Value() != flushes.Value() {
		t.Errorf("%d frames in %d flushes: an inline write is one frame and one flush", frames.Value(), flushes.Value())
	}
}

// TestFrameQueueInlineFallsBack: a peer that stops reading fills the
// socket (its send buffer as small as the kernel allows) until Enqueue
// leaves a frame to the writer goroutine, part of it written inline or
// none, and Enqueue never blocks meanwhile. More frames queue behind it,
// and more still are enqueued while the peer drains; the byte stream must
// be every frame, whole and in order.
func TestFrameQueueInlineFallsBack(t *testing.T) {
	leaktest.Check(t)
	a, b := unixPair(t)
	defer b.Close()
	defer a.Close()
	if err := a.SetWriteBuffer(1); err != nil {
		t.Fatal(err)
	}
	fq := NewFrameQueue(a, func(err error) { t.Errorf("write failed: %v", err) })
	defer fq.Close()
	seq := 0
	for !backlogged(fq) {
		if seq == 10000 {
			t.Fatal("10000 frames never filled a socket nobody reads")
		}
		if err := fq.Enqueue(seqFrame(t, seq)); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	for end := seq + 20; seq < end; seq++ {
		if err := fq.Enqueue(seqFrame(t, seq)); err != nil {
			t.Fatal(err)
		}
	}
	const extra = 300
	n := seq + extra
	done := make(chan struct{})
	go func() { defer close(done); readSeq(t, b, n) }()
	for ; seq < n; seq++ {
		if err := fq.Enqueue(seqFrame(t, seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fq.Flush(); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := fq.Close(); err != nil {
		t.Fatal(err)
	}
}

// goid returns the calling goroutine's id.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// TestFrameQueuePeerCloses: writing to a socket whose peer has closed
// fails — inline first — and the error is latched by the writer
// goroutine alone: onErr fires exactly once, from that goroutine, later
// enqueues return the error, and Close counts the frames dropped.
func TestFrameQueuePeerCloses(t *testing.T) {
	leaktest.Check(t)
	a, b := unixPair(t)
	defer a.Close()
	b.Close()
	me := goid()
	var mu sync.Mutex
	var calls []string
	fired := make(chan struct{}, 1)
	fq := NewFrameQueue(a, func(err error) {
		mu.Lock()
		calls = append(calls, goid())
		mu.Unlock()
		if !errors.Is(err, syscall.EPIPE) {
			t.Errorf("latched %v, want EPIPE", err)
		}
		fired <- struct{}{}
	})
	fq.Enqueue(seqFrame(t, 0))
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("onErr never fired for a closed peer")
	}
	for i := 1; i < 4; i++ {
		if err := fq.Enqueue(seqFrame(t, i)); !errors.Is(err, syscall.EPIPE) {
			t.Errorf("Enqueue after the failure = %v, want the latched error", err)
		}
	}
	err := fq.Close()
	if !errors.Is(err, syscall.EPIPE) || !strings.Contains(err.Error(), "dropped 1 frame") {
		t.Errorf("Close = %v, want the latched error counting the 1 dropped frame", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 1 || calls[0] == me {
		t.Errorf("onErr ran %d times, on goroutines %v (Enqueue's is %s); want once, on the writer", len(calls), calls, me)
	}
}

// TestFrameQueuePipe: a connection that is not a syscall.Conn (net.Pipe)
// has no inline path, and every frame still arrives, in order, through
// the writer goroutine.
func TestFrameQueuePipe(t *testing.T) {
	leaktest.Check(t)
	a, b := net.Pipe()
	defer b.Close()
	defer a.Close()
	fq := NewFrameQueue(a, func(err error) { t.Errorf("write failed: %v", err) })
	if fq.rc != nil {
		t.Fatal("net.Pipe was given an inline path")
	}
	const n = 100
	done := make(chan struct{})
	go func() { defer close(done); readSeq(t, b, n) }()
	for i := 0; i < n; i++ {
		if err := fq.Enqueue(seqFrame(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if err := fq.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSwitchRoutesFramesBehindHello: a rank that sends its hello and a
// burst of frames in one write has every frame routed. The switch reads
// the hello exactly (readHello); a read that took more would swallow the
// burst before the rank's router, which reads the socket from then on,
// ever saw it.
func TestSwitchRoutesFramesBehindHello(t *testing.T) {
	leaktest.Check(t)
	sw, err := NewSwitch(2, nil, func(rank int, err error) {
		if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
			t.Errorf("rank %d link: %v", rank, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	paired := make(chan error, 1)
	go func() { paired <- sw.Pair() }()
	dial := func() net.Conn {
		c, err := net.Dial(sw.Addr().Network(), sw.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c0, c1 := dial(), dial()
	defer c1.Close()
	defer c0.Close()
	const n = 20
	burst, err := wire.AppendFrame(nil, &wire.Frame{Kind: wire.FHello, From: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		burst, err = wire.AppendFrame(burst, &wire.Frame{Kind: wire.FMsg, From: 0, To: 1, Tag: int32(i), Payload: wire.Float64s{float64(i)}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c0.Write(burst); err != nil {
		t.Fatal(err)
	}
	if err := writeHello(c1, 1); err != nil {
		t.Fatal(err)
	}
	if err := <-paired; err != nil {
		t.Fatal(err)
	}
	sw.Start()
	fr := wire.NewFrameReader(c1)
	var f wire.Frame
	for i := 0; i < n; i++ {
		c1.SetReadDeadline(time.Now().Add(5 * time.Second))
		if err := fr.ReadInto(&f); err != nil {
			t.Fatalf("frame %d of the burst behind the hello: %v", i, err)
		}
		if f.Tag != int32(i) {
			t.Fatalf("frame %d arrived as tag %d", i, f.Tag)
		}
	}
	if err := sw.Close(true); err != nil {
		t.Fatal(err)
	}
}

// TestFrameQueueConcurrentEnqueue: several goroutines enqueue on one
// queue at once, as a switch's routers do on a destination's queue, over
// a small socket buffer so inline writes and the writer's backlog
// interleave. Every frame arrives whole, and each sender's frames in the
// order it sent them.
func TestFrameQueueConcurrentEnqueue(t *testing.T) {
	leaktest.Check(t)
	a, b := unixPair(t)
	defer b.Close()
	defer a.Close()
	if err := a.SetWriteBuffer(1); err != nil {
		t.Fatal(err)
	}
	fq := NewFrameQueue(a, func(err error) { t.Errorf("write failed: %v", err) })
	defer fq.Close()
	const senders, each = 4, 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.SetReadDeadline(time.Now().Add(10 * time.Second))
		fr := wire.NewFrameReader(b)
		next := make([]int32, senders)
		var f wire.Frame
		for i := 0; i < senders*each; i++ {
			if err := fr.ReadInto(&f); err != nil {
				t.Errorf("frame %d: %v", i, err)
				b.Close()
				return
			}
			s, seq := f.From, f.Tag
			if vals, ok := f.Payload.(wire.Float64s); !ok || len(vals) != 300 || vals[299] != float64(seq) {
				t.Errorf("frame %d of sender %d arrived damaged", seq, s)
			}
			if seq != next[s] {
				t.Errorf("sender %d: frame %d arrived where %d was due", s, seq, next[s])
				b.Close()
				return
			}
			next[s]++
		}
	}()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals := make(wire.Float64s, 300)
			for i := 0; i < each; i++ {
				vals[299] = float64(i)
				raw, err := wire.AppendFrame(wire.GetBuf(), &wire.Frame{Kind: wire.FMsg, From: int32(s), To: 1, Tag: int32(i), Payload: vals})
				if err != nil {
					t.Error(err)
					return
				}
				if err := fq.Enqueue(raw); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := fq.Flush(); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := fq.Close(); err != nil {
		t.Fatal(err)
	}
}
