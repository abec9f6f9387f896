package svc

import (
	"errors"
	"fmt"
	"io"
	"net"

	"sdsm/internal/wire"
)

// RunPoolDaemon is the body of `sdsm-node -pool`: a long-lived node
// daemon that attaches a warm pool of the given slot count to a
// coordinator and executes the jobs dispatched to it until the
// connection closes or stop fires. The pool — its arenas and everything
// warm in them — survives every job; only daemon death discards it.
//
// The attach handshake is one FPoolHello frame with the slot count in
// Tag. After it the daemon is a coordinator without a listener: the
// link it dialed gets the session a coordinator gives a client (FJob in;
// FJobAccept, FJobResult out), in front of `slots` local
// workers. The far side keeps at most `slots` jobs in flight, so the
// daemon's queue of that size never rejects.
func RunPoolDaemon(network, addr string, slots int, stop <-chan struct{}) error {
	if slots < 1 {
		return fmt.Errorf("svc: pool daemon needs at least 1 slot, got %d", slots)
	}
	c, err := net.Dial(network, addr)
	if err != nil {
		return fmt.Errorf("svc: pool daemon dial: %w", err)
	}
	l := newLink(c)
	returned := make(chan struct{})
	go func() {
		select {
		case <-stop:
		case <-returned:
		}
		l.Close() // unblocks the session's read
	}()
	defer close(returned)
	if err := l.Write(&wire.Frame{Kind: wire.FPoolHello, Tag: int32(slots)}); err != nil {
		return fmt.Errorf("svc: pool daemon hello: %w", err)
	}
	co := newCoordinator(Config{Slots: slots, QueueCap: slots})
	var f wire.Frame
	if err = l.ReadInto(&f); err == nil {
		err = co.serveJobs(l, &f)
	}
	// Coordinator gone (or stop fired): in-flight jobs run out — their
	// results have nowhere to go, but the runs complete and release their
	// slots cleanly — then decide how we left. A clean coordinator
	// shutdown (EOF) is the daemon's documented end of life, not an error.
	co.Close()
	select {
	case <-stop:
		return nil
	default:
	}
	if errors.Is(err, io.EOF) {
		return nil
	}
	return fmt.Errorf("svc: pool daemon: coordinator connection lost: %w", err)
}
