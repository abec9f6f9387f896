package host_test

import (
	"reflect"
	"slices"
	"testing"

	"sdsm/internal/host"
	"sdsm/internal/leaktest"
	"sdsm/internal/model"
	"sdsm/internal/wire"
)

var (
	_ host.Transport = (*host.Network)(nil)
	_ host.Mailbox   = (*host.Network)(nil)
	_ host.Transport = (*host.Net)(nil)
)

// exchange runs one scripted exchange on three nodes of tr and returns
// what the script received: two replies completed by one AwaitAll, two
// messages received by sender and tag, a message that waited behind
// another tag, and a hand taken after a message sent behind it.
func exchange(t *testing.T, h host.Host, tr host.Transport) [5]any {
	t.Helper()
	const tagA, tagB host.Tag = 7, 8
	tr.Serve(func(p host.Proc, at int, req *wire.DiffRequest, rep *wire.DiffReply) int {
		rep.Redirects = append(rep.Redirects, wire.PageOwner{Page: req.Pages[0], Owner: int32(at)})
		return 24
	})
	var got [5]any // each element written by one node
	err := h.Run(func(p host.Proc) {
		p.Begin()
		defer p.End()
		switch p.ID() {
		case 0:
			tr.Send(p, 1, tagA, []float64{1.5}, 8)
			tr.Send(p, 2, tagA, []float64{2.5, 3.5}, 16)
			pds := []*host.Pending{{}, {}}
			tr.StartRequest(p, 1, &wire.DiffRequest{Pages: []int32{10}}, 16, pds[0])
			tr.StartRequest(p, 2, &wire.DiffRequest{Pages: []int32{20}}, 16, pds[1])
			host.AwaitAll(p, pds, tr.Costs())
			got[0] = []any{pds[0].Reply, pds[0].Bytes, pds[1].Reply, pds[1].Bytes}
			tr.Message(1, 2, p.Now(), 32)
			tr.Hand(p, 1, 3, &wire.Grant{Bytes: 12})
			tr.Send(p, 1, tagB, nil, 0)
		case 1:
			got[1] = tr.Recv(p, 0, tagA).Payload
			tr.Send(p, 2, tagB, []float64{4.5}, 8)
			tr.Recv(p, 0, tagB)
			got[4] = tr.TakeHand(p, 3)
		case 2:
			got[2] = tr.Recv(p, 1, tagB).Payload
			got[3] = tr.Recv(p, 0, tagA).Payload
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestNetworkAndNetAccountAlike runs the same script on the in-process
// Network over a Real host and on the socket backend: what is received,
// and every traffic counter, must agree. Net must stay a Transport only —
// a Mailbox's SendShared on it would bypass the sockets.
func TestNetworkAndNetAccountAlike(t *testing.T) {
	leaktest.Check(t)
	r := host.NewReal(3)
	in := host.NewNetwork(r, model.SP2())
	wantGot := exchange(t, r, in)

	n, err := host.NewNet(3, model.SP2())
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	got := exchange(t, n, n)

	if !reflect.DeepEqual(got, wantGot) {
		t.Errorf("Net received %v, Network %v", got, wantGot)
	}
	if s, want := n.Stats(), in.Stats(); !reflect.DeepEqual(s, want) {
		t.Errorf("Net stats %+v, Network %+v", s, want)
	}
	if _, ok := any(n).(host.Mailbox); ok {
		t.Error("host.Net implements Mailbox: its SendShared would bypass the sockets")
	}
}

// TestStartRequestConsumesRequest pins the transport contract that lets a
// requester build every request in the same storage: StartRequest consumes
// req before it returns — Network serves it inline, Net encodes it into
// the frame — so overwriting the request afterwards cannot change what the
// server sees. The server echoes the request's page and applied entry.
func TestStartRequestConsumesRequest(t *testing.T) {
	leaktest.Check(t)
	check := func(name string, h host.Host, tr host.Transport) {
		tr.Serve(func(p host.Proc, at int, req *wire.DiffRequest, rep *wire.DiffReply) int {
			rep.Redirects = append(rep.Redirects, wire.PageOwner{Page: req.Pages[0], Owner: req.Applied[0][1]})
			return 24
		})
		var got []wire.PageOwner
		err := h.Run(func(p host.Proc) {
			if p.ID() != 0 {
				return
			}
			p.Begin()
			defer p.End()
			req := wire.DiffRequest{Pages: []int32{7}, Applied: [][]int32{{0, 3}}}
			var pd host.Pending
			tr.StartRequest(p, 1, &req, 16, &pd)
			req.Pages[0], req.Applied[0][1] = 99, 99
			host.Await(p, &pd, tr.Costs())
			got = pd.Reply.Redirects
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := []wire.PageOwner{{Page: 7, Owner: 3}}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the server saw %v, want the request as issued, %v", name, got, want)
		}
	}
	r := host.NewReal(2)
	check("Network", r, host.NewNetwork(r, model.SP2()))
	n, err := host.NewNet(2, model.SP2())
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	check("Net", n, n)
}

// storage is one rank's storage as a tmk.Store lends it to a Net.
type storage struct {
	ar  wire.Arena
	rep wire.DiffReply
}

func (s *storage) DecodeArena() *wire.Arena    { return &s.ar }
func (s *storage) ServeReply() *wire.DiffReply { return &s.rep }

// TestNetReplyOwnsItsLists pins that a Pending a Net exchange resolves
// holds its reply in lists of its own, never in the decode arena's
// carves: a requester keeps its Pendings across machines (tmk.Store) and
// an in-process exchange appends its next reply into them, which would
// write into whatever the rewound arena hands the next machine's decoder.
// One Pending is resolved on a Net decoding into a lent arena, reused for
// a larger in-process reply, and the arena, rewound, decodes a second
// Net's reply whose diff has no covers: that diff must arrive with none.
func TestNetReplyOwnsItsLists(t *testing.T) {
	leaktest.Check(t)
	var lent [2]storage
	var pd host.Pending
	fetch := func(h host.Host, tr host.Transport, diffs int, covers []int32) []wire.Diff {
		tr.Serve(func(p host.Proc, at int, req *wire.DiffRequest, rep *wire.DiffReply) int {
			for i := range diffs {
				rep.Diffs = append(rep.Diffs, wire.Diff{Page: int32(i), Creator: 1, To: 1, Covers: covers})
			}
			return 24
		})
		var got []wire.Diff
		err := h.Run(func(p host.Proc) {
			if p.ID() != 0 {
				return
			}
			p.Begin()
			defer p.End()
			tr.StartRequest(p, 1, &wire.DiffRequest{Pages: []int32{0}, Applied: [][]int32{{0, 0}}}, 16, &pd)
			host.Await(p, &pd, tr.Costs())
			got = slices.Clone(pd.Reply.Diffs)
			clear(pd.Reply.Diffs)
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	onNet := func(covers []int32) []wire.Diff {
		n, err := host.NewNet(2, model.SP2(), &lent[0], &lent[1])
		if err != nil {
			t.Fatal(err)
		}
		got := fetch(n, n, 1, covers)
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		lent[0].ar.Rewind()
		lent[1].ar.Rewind()
		return got
	}
	onNet([]int32{1, 1})
	r := host.NewReal(2)
	fetch(r, host.NewNetwork(r, model.SP2()), 3, []int32{5, 5})
	if got := onNet(nil); len(got) != 1 || got[0].Covers != nil {
		t.Fatalf("the second machine's reply arrived as %+v, want one diff without covers", got)
	}
}
