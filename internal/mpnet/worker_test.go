package mpnet

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"

	"sdsm/internal/host"
	"sdsm/internal/leaktest"
	"sdsm/internal/model"
	"sdsm/internal/mp"
)

// shortAfterHello passes its first write (the hello) through and then
// stops every write short without reporting an error — the io.Writer
// contract violation the outbound queue must turn into a loud failure.
type shortAfterHello struct {
	net.Conn
	writes int
}

func (c *shortAfterHello) Write(b []byte) (int, error) {
	if c.writes++; c.writes == 1 {
		return c.Conn.Write(b)
	}
	return len(b) / 2, nil
}

// TestWorkerShortWrite pins the worker's outbound path to the frame
// queue's short-write guard: a write that stops short latches
// io.ErrShortWrite, the flush reports it, and the rank's next send dies
// with the link loss instead of leaving a frame split mid-stream.
func TestWorkerShortWrite(t *testing.T) {
	leaktest.Check(t)
	c1, c2 := net.Pipe()
	defer c2.Close()
	go io.Copy(io.Discard, c2) // the coordinator side: drain whatever arrives

	ep, err := host.NewEndpoint(&shortAfterHello{Conn: c1}, 0, model.SP2(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	w := newWorkerWorld(ep, 0, 2)
	err = w.world.Run(func(r *mp.Rank) {
		r.Send(1, []float64{1, 2, 3})
		if err := ep.Flush(); !errors.Is(err, io.ErrShortWrite) {
			t.Errorf("Flush = %v, want io.ErrShortWrite", err)
		}
		r.Send(1, []float64{4})
		t.Error("send on a failed link returned")
	})
	if err == nil || !strings.Contains(err.Error(), "link lost") || !strings.Contains(err.Error(), io.ErrShortWrite.Error()) {
		t.Errorf("Run error = %v, want the link loss naming the short write", err)
	}
}
