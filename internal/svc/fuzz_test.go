package svc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sdsm/internal/leaktest"
	"sdsm/internal/wire"
)

// FuzzCoordinatorClient writes arbitrary bytes, raw, as one connection to
// a pure control plane (Slots 0: no executor, so every well-formed job is
// rejected and none runs), then half-closes it, so a truncated input ends
// at EOF instead of waiting out the handshake deadline. The coordinator
// must not panic; what it sends back on that connection must be, in
// order, one FJobReject per FJob frame the input opens its session with,
// each carrying that frame's Tag — the tail may go unanswered only
// because the link closed; a client dialed afterwards must still get its
// per-job rejection; and after Close nothing may be left running or open.
// The seed corpus under testdata/fuzz is coordinatorSeeds (regenerate
// with -write-corpus after a frame format change).
func FuzzCoordinatorClient(f *testing.F) {
	for _, b := range coordinatorSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCoordinatorInput(t, data)
	})
}

// checkCoordinatorInput is one FuzzCoordinatorClient input, also the body
// of the regression tests for the inputs it found.
func checkCoordinatorInput(t *testing.T, data []byte) {
	t.Helper()
	leaktest.Check(t)
	co, err := Start(Config{Slots: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	verdicts := exchangeRaw(t, co, data)
	want := sessionTags(data)
	if len(verdicts) > len(want) {
		t.Fatalf("%d frames back for a session of %d jobs: %+v", len(verdicts), len(want), verdicts)
	}
	for i, v := range verdicts {
		d, ok := v.Payload.(*wire.JobDecision)
		if v.Kind != wire.FJobReject || v.Tag != want[i] || !ok || d.Reason == "" {
			t.Fatalf("frame %d back: kind %d tag %d payload %+v, want a rejection of job tag %d", i, v.Kind, v.Tag, v.Payload, want[i])
		}
	}

	cl, err := Dial(co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Submit(wire.JobSpec{App: "jacobi", Set: "small", Procs: 1}); err == nil || !strings.Contains(err.Error(), "no executor") {
		t.Fatalf("second client's submit: %v, want a per-job rejection for want of an executor", err)
	}
}

// exchangeRaw writes data on a fresh connection to co, half-closes it,
// and returns every frame co sends back before it closes the link.
func exchangeRaw(t *testing.T, co *Coordinator, data []byte) []wire.Frame {
	t.Helper()
	conn, err := net.Dial(co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(time.Minute))
	type result struct {
		frames []wire.Frame
		err    error
	}
	back := make(chan result, 1)
	go func() {
		var r result
		fr := wire.NewFrameReader(conn)
		for {
			var f wire.Frame
			if r.err = fr.ReadInto(&f); r.err != nil {
				break
			}
			r.frames = append(r.frames, f)
		}
		back <- r
	}()
	// The coordinator may close the link mid-input; the write error that
	// follows is expected.
	conn.Write(data)
	conn.(interface{ CloseWrite() error }).CloseWrite()
	r := <-back
	if errors.Is(r.err, os.ErrDeadlineExceeded) {
		t.Fatalf("the link neither ended nor closed within a minute of EOF (%d frames back)", len(r.frames))
	}
	return r.frames
}

// sessionTags decodes data as the coordinator does and returns the Tag of
// each FJob frame in the run that opens it: the jobs a session admits
// before the input ends or turns to anything else.
func sessionTags(data []byte) []int32 {
	fr := wire.NewFrameReader(bytes.NewReader(data))
	var tags []int32
	var f wire.Frame
	for fr.ReadInto(&f) == nil && f.Kind == wire.FJob {
		tags = append(tags, f.Tag)
	}
	return tags
}

// coordinatorSeeds are the corpus's seeds: a valid job frame, two jobs
// ended by a frame that does not belong on a session, a pool hello with
// no slots, a truncated frame, a wrong version byte and a length prefix
// over wire.MaxFrame.
func coordinatorSeeds(tb testing.TB) [][]byte {
	frame := func(dst []byte, f *wire.Frame) []byte {
		b, err := wire.AppendFrame(dst, f)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	job := func(tag int32) *wire.Frame {
		return &wire.Frame{Kind: wire.FJob, Tag: tag, Payload: &wire.JobSpec{App: "jacobi", Set: "small", Procs: 2, Verify: true}}
	}
	valid := frame(nil, job(7))
	two := frame(frame(frame(nil, job(1)), job(2)), &wire.Frame{Kind: wire.FPoolHello, Tag: 1})
	hello := frame(nil, &wire.Frame{Kind: wire.FPoolHello})
	truncated := valid[:len(valid)-3]
	version := bytes.Clone(valid)
	version[4] = wire.Version + 1
	oversized := binary.LittleEndian.AppendUint32(nil, wire.MaxFrame+1)
	oversized = append(oversized, valid[4:]...)
	return [][]byte{valid, two, hello, truncated, version, oversized}
}

var writeCorpus = flag.Bool("write-corpus", false, "regenerate the checked-in fuzz seed corpus")

// TestWriteCoordinatorCorpus regenerates testdata/fuzz/FuzzCoordinatorClient
// from coordinatorSeeds when run with -write-corpus.
func TestWriteCoordinatorCorpus(t *testing.T) {
	if !*writeCorpus {
		t.Skip("pass -write-corpus to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzCoordinatorClient")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	old, _ := filepath.Glob(filepath.Join(dir, "seed-*"))
	for _, f := range old {
		os.Remove(f)
	}
	for i, b := range coordinatorSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPoolHelloSlotsBounded: a pool hello's slot count is untrusted and
// the coordinator starts a worker per slot, so a hello claiming more than
// maxRanks slots — 2^31-1 included — must attach nothing and end the link
// like any other bad handshake.
func TestPoolHelloSlotsBounded(t *testing.T) {
	for _, slots := range []int32{maxRanks + 1, 1<<31 - 1} {
		b, err := wire.AppendFrame(nil, &wire.Frame{Kind: wire.FPoolHello, Tag: slots})
		if err != nil {
			t.Fatal(err)
		}
		checkCoordinatorInput(t, b)
	}
}
