package host_test

import (
	"reflect"
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
// what the script received: two replies completed by one AwaitAll, a
// message received by sender and tag, one received from AnySender, a
// message that waited behind another tag, and a hand taken after a
// message sent behind it.
func exchange(t *testing.T, h host.Host, tr host.Transport) [5]any {
	t.Helper()
	const tagA, tagB host.Tag = 7, 8
	tr.Serve(func(p host.Proc, at int, req any) (any, int) {
		return wire.Float64s{float64(at), req.(wire.Float64s)[0]}, 24
	})
	var got [5]any // each element written by one node
	err := h.Run(func(p host.Proc) {
		p.Begin()
		defer p.End()
		switch p.ID() {
		case 0:
			tr.Send(p, 1, tagA, []float64{1.5}, 8)
			tr.Send(p, 2, tagA, []float64{2.5, 3.5}, 16)
			pds := []*host.Pending{
				tr.StartRequest(p, 1, wire.Float64s{10}, 16),
				tr.StartRequest(p, 2, wire.Float64s{20}, 16),
			}
			host.AwaitAll(p, pds, tr.Costs())
			got[0] = []any{pds[0].Reply, pds[0].Bytes, pds[1].Reply, pds[1].Bytes}
			tr.Message(1, 2, p.Now(), 32)
			tr.Hand(p, 1, 3, wire.Grant{Bytes: 12})
			tr.Send(p, 1, tagB, nil, 0)
		case 1:
			got[1] = tr.Recv(p, 0, tagA).Payload
			tr.Send(p, 2, tagB, []float64{4.5}, 8)
			tr.Recv(p, 0, tagB)
			got[4] = tr.TakeHand(p, 3)
		case 2:
			got[2] = tr.Recv(p, host.AnySender, tagB).Payload
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
