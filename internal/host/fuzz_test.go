package host

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"sdsm/internal/leaktest"
	"sdsm/internal/model"
	"sdsm/internal/wire"
)

// lentStorage is one rank's storage as a tmk.Store lends it to a Net.
type lentStorage struct {
	ar  wire.Arena
	rep wire.DiffReply
}

func (s *lentStorage) DecodeArena() *wire.Arena    { return &s.ar }
func (s *lentStorage) ServeReply() *wire.DiffReply { return &s.rep }

// deliveryStores are the storage FuzzNetDelivery lends its machines, the
// arenas rewound after each one closes, so every input decodes into
// storage the inputs before it grew.
var deliveryStores [3]lentStorage

// FuzzNetDelivery drives rank 2's socket of a 3-rank Net with arbitrary
// frames: the input is cut into frame bodies (frameBodies), each sent on
// the switch's link to rank 2, length prefix and all, ahead of the
// machine's own traffic — ranks 0 and 1 each send rank 2 one message,
// which rank 2 receives. Rank 2's delivery loop reads them through its
// FrameReader into a lent decode arena. The run must return the two
// payloads as sent, or a link error, as deliveryVerdict says it may; it
// must not panic, leak a goroutine or a socket, or pass its deadline. The
// seed corpus under testdata/fuzz is deliverySeeds (regenerate with
// -write-corpus after a frame format change).
func FuzzNetDelivery(f *testing.F) {
	for _, b := range deliverySeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDelivery(t, data)
	})
}

// frameBodies cuts data into frame bodies: each is a two-byte
// little-endian length and that many bytes, the last one cut short where
// data ends.
func frameBodies(data []byte) [][]byte {
	var bodies [][]byte
	for len(data) >= 2 {
		n := min(int(binary.LittleEndian.Uint16(data)), len(data)-2)
		bodies = append(bodies, data[2:2+n])
		data = data[2+n:]
	}
	return bodies
}

// verdict is what a delivery run may end in.
type verdict int

const (
	mustDeliver verdict = iota // every frame is filed: the run returns the payloads
	mustFail                   // the delivery loop refuses a frame: a link error
	mayFail                    // a queued request fails on the service loop's schedule
)

// deliveryVerdict decodes bodies as rank 2's delivery loop will and says
// how the run must end. The loop meets every injected frame before the
// machine's own messages, so a frame it refuses — one that does not
// decode, a reply to no request (rank 2 issues none), a hand slot staged
// twice, a kind no rank receives — fails the run before rank 2 can
// receive them. Messages and hands are filed and the run completes. A
// request is queued for the service loop, whose reply or refusal fails
// the machine when it is served, which may come after the run is done.
// tag is one no injected message uses, for the machine's own messages.
func deliveryVerdict(bodies [][]byte) (v verdict, tag Tag) {
	tags := map[int32]bool{}
	hands := map[int32]bool{}
	for _, b := range bodies {
		raw := binary.LittleEndian.AppendUint32(nil, uint32(len(b)))
		f, _, err := wire.ParseFrame(append(raw, b...))
		if err != nil {
			return mustFail, 0
		}
		switch f.Kind {
		case wire.FMsg:
			tags[f.Tag] = true
		case wire.FHand:
			if hands[f.Tag] {
				return mustFail, 0
			}
			hands[f.Tag] = true
		case wire.FReq:
			v = mayFail
		default:
			return mustFail, 0
		}
	}
	for tag = 1; tags[int32(tag)]; tag++ {
	}
	return v, tag
}

// checkDelivery is one FuzzNetDelivery input, also the body of the
// regression tests for the inputs it found.
func checkDelivery(t *testing.T, data []byte) {
	t.Helper()
	leaktest.Check(t)
	bodies := frameBodies(data)
	want, tag := deliveryVerdict(bodies)
	nw, err := NewNet(3, model.SP2(), &deliveryStores[0], &deliveryStores[1], &deliveryStores[2])
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		nw.Close()
		for i := range deliveryStores {
			deliveryStores[i].ar.Rewind()
		}
	}()
	nw.Serve(func(p Proc, at int, req *wire.DiffRequest, rep *wire.DiffReply) int { return 0 })
	for _, b := range bodies {
		raw := binary.LittleEndian.AppendUint32(wire.GetBuf(), uint32(len(b)))
		if err := nw.sw.Enqueue(2, append(raw, b...)); err != nil {
			t.Fatal(err)
		}
	}
	sent := [][]float64{{1.5, -2, 3}, {4, 0.25}}
	var got [2]any
	done := make(chan error, 1)
	go func() {
		done <- nw.Run(func(p Proc) {
			p.Begin()
			defer p.End()
			if p.ID() < 2 {
				nw.Send(p, 2, tag, sent[p.ID()], 8*len(sent[p.ID()]))
				return
			}
			got[0] = nw.Recv(p, 0, tag).Payload
			got[1] = nw.Recv(p, 1, tag).Payload
		})
	}()
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("%d frames: the run neither ended nor failed within 20s", len(bodies))
	}
	switch {
	case err == nil && want == mustFail:
		t.Fatalf("%d frames: the run succeeded past a frame its delivery loop must refuse", len(bodies))
	case err != nil && want == mustDeliver:
		t.Fatalf("%d frames of messages and hands: %v", len(bodies), err)
	case err != nil && !strings.Contains(err.Error(), "link lost"):
		t.Fatalf("%d frames: the run failed with %v, not a link error", len(bodies), err)
	case err == nil:
		for i, g := range got {
			if vals, ok := g.([]float64); !ok || !slices.Equal(vals, sent[i]) {
				t.Fatalf("rank 2 received %v from rank %d, sent %v", g, i, sent[i])
			}
		}
	}
}

// deliverySeeds are the corpus's seeds, each a sequence of frame bodies
// (frameBodies): none; a message on the tag the machine's own messages
// would take; a message carrying a diff reply and a hand carrying a
// departure, which carve runs, covers, intervals and page refs; a hand
// slot staged twice; a reply to no request; a request; a request with
// the wrong payload; a body cut short; a wrong version byte; a hello.
func deliverySeeds(tb testing.TB) [][]byte {
	body := func(f *wire.Frame) []byte {
		b, err := wire.AppendFrame(nil, f)
		if err != nil {
			tb.Fatal(err)
		}
		return b[4:]
	}
	input := func(bodies ...[]byte) []byte {
		var in []byte
		for _, b := range bodies {
			in = binary.LittleEndian.AppendUint16(in, uint16(len(b)))
			in = append(in, b...)
		}
		return in
	}
	msg := body(&wire.Frame{Kind: wire.FMsg, From: 0, To: 2, Tag: 1, Bytes: 16, Payload: []float64{7, 8}})
	diffs := body(&wire.Frame{Kind: wire.FMsg, From: 1, To: 2, Tag: 9, Payload: &wire.DiffReply{Diffs: []wire.Diff{
		{Page: 3, Creator: 1, From: 0, To: 2, Covers: []int32{2, 0, 0}, Runs: []wire.Run{{Off: 4, Vals: []float64{1, 2}}, {Off: 90, Vals: []float64{3}}}},
		{Page: 4, Creator: 0, To: 1, Whole: true, Runs: []wire.Run{{Vals: []float64{5}}}},
	}}})
	hand := body(&wire.Frame{Kind: wire.FHand, From: 0, To: 2, Tag: 5, Payload: &wire.Depart{Time: 12, Intervals: []wire.OwnedInterval{
		{Owner: 1, Idx: 2, IV: wire.Interval{Pages: []wire.PageRef{{Page: 3, ExtLo: 4, ExtHi: 6}, {Page: 9, Whole: true}}}},
	}}})
	reply := body(&wire.Frame{Kind: wire.FReply, From: 0, To: 2, Tag: 0, Payload: &wire.DiffReply{}})
	req := body(&wire.Frame{Kind: wire.FReq, From: 0, To: 2, Tag: 3, Payload: &wire.DiffRequest{Req: 0, Pages: []int32{1, 2}, Applied: [][]int32{{0, 0, 0}, {1, 0, 0}}}})
	badReq := body(&wire.Frame{Kind: wire.FReq, From: 1, To: 2, Tag: 4, Payload: []float64{1}})
	version := bytes.Clone(msg)
	version[0] = wire.Version + 1
	hello := body(&wire.Frame{Kind: wire.FHello, From: 2})
	return [][]byte{
		nil,
		input(msg),
		input(diffs, hand),
		input(hand, hand),
		input(reply),
		input(msg, req),
		input(badReq),
		input(diffs[:len(diffs)-3]),
		input(version),
		input(hello),
	}
}

var writeCorpus = flag.Bool("write-corpus", false, "regenerate the checked-in fuzz seed corpus")

// TestWriteDeliveryCorpus regenerates testdata/fuzz/FuzzNetDelivery from
// deliverySeeds when run with -write-corpus.
func TestWriteDeliveryCorpus(t *testing.T) {
	if !*writeCorpus {
		t.Skip("pass -write-corpus to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzNetDelivery")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	old, _ := filepath.Glob(filepath.Join(dir, "seed-*"))
	for _, f := range old {
		os.Remove(f)
	}
	for i, b := range deliverySeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
