package host_test

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"sdsm/internal/apps"
	"sdsm/internal/host"
	"sdsm/internal/leaktest"
	"sdsm/internal/mpnet"
	"sdsm/internal/svc"
	"sdsm/internal/wire"
)

// The process-per-rank deployment's handshake is the switch's and the
// endpoint's (TestHandshakeTimeout pins the primitive); these tests pin
// it end to end through mpnet, whose coordinator spawns THIS test binary
// as its workers, and through svc, whose coordinator reads an accepted
// connection's first frame under the same deadline. They live here
// because the deadline they shorten does.

// badWorkerEnv, set on a spawned worker, selects how it breaks the
// handshake (see badWorker).
const badWorkerEnv = "SDSM_TEST_BAD_WORKER"

func TestMain(m *testing.M) {
	if mode := os.Getenv(badWorkerEnv); mode != "" {
		badWorker(mode)
	}
	os.Exit(m.Run())
}

// badWorker is the body of a spawned worker process that dials the
// coordinator and then misbehaves — never says hello, or says a hello of
// the wrong frame kind or from a rank the machine does not have — and
// waits to be killed by the coordinator's teardown.
func badWorker(mode string) {
	parts := strings.SplitN(os.Getenv(mpnet.WorkerEnv), ";", 3)
	c, err := net.Dial(parts[0], parts[1])
	if err != nil {
		os.Exit(3)
	}
	switch mode {
	case "wrong-kind":
		wire.WriteFrame(c, &wire.Frame{Kind: wire.FMsg, From: 0})
	case "out-of-range":
		wire.WriteFrame(c, &wire.Frame{Kind: wire.FHello, From: 7})
	}
	time.Sleep(time.Hour)
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TestCoordinatorSilentWorker: a worker that connects and never says
// hello fails the run with a handshake timeout within the deadline — no
// hang, no leaked process, socket or goroutine.
func TestCoordinatorSilentWorker(t *testing.T) {
	leaktest.Check(t)
	defer host.SetHandshakeTimeout(500 * time.Millisecond)()
	t.Setenv(badWorkerEnv, "silent")
	a, err := apps.ByName("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = mpnet.RunOpts(a, apps.Small, 2, mpnet.Options{})
	if err == nil {
		t.Fatal("run succeeded with workers that never said hello")
	}
	if !strings.Contains(err.Error(), "handshake") || !isTimeout(err) {
		t.Errorf("error %q is not a handshake timeout", err)
	}
	if e := time.Since(start); e > 10*time.Second {
		t.Errorf("timeout took %v, deadline was 500ms", e)
	}
}

// TestCoordinatorBadHello: a hello of the wrong kind, or from a rank
// outside the machine, is refused with an error naming both.
func TestCoordinatorBadHello(t *testing.T) {
	a, err := apps.ByName("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	for mode, want := range map[string]string{
		"wrong-kind":   fmt.Sprintf("kind %d from 0", wire.FMsg),
		"out-of-range": fmt.Sprintf("kind %d from 7", wire.FHello),
	} {
		t.Run(mode, func(t *testing.T) {
			leaktest.Check(t)
			t.Setenv(badWorkerEnv, mode)
			_, err := mpnet.RunOpts(a, apps.Small, 1, mpnet.Options{})
			if err == nil || !strings.Contains(err.Error(), "bad hello") || !strings.Contains(err.Error(), want) {
				t.Errorf("error = %v, want a bad hello naming %q", err, want)
			}
		})
	}
}

// TestWorkerSilentCoordinator: a coordinator that accepts and never sends
// the start frame fails the worker with a handshake timeout.
func TestWorkerSilentCoordinator(t *testing.T) {
	leaktest.Check(t)
	defer host.SetHandshakeTimeout(50 * time.Millisecond)()
	ln, dir, err := host.ListenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	start := time.Now()
	err = mpnet.RunWorker(ln.Addr().Network(), ln.Addr().String(), 0)
	if err == nil {
		t.Fatal("worker ran without ever being configured")
	}
	if !strings.Contains(err.Error(), "start frame") || !strings.Contains(err.Error(), "handshake") || !isTimeout(err) {
		t.Errorf("error %q is not a start-frame handshake timeout", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Errorf("timeout took %v, deadline was 50ms", e)
	}
	if c := <-accepted; c != nil {
		c.Close()
	}
}

// TestServiceSilentPeer: a connection the service coordinator accepted
// that never sends a first frame is closed within the handshake deadline
// and costs nothing else — a client dialed afterwards is served.
func TestServiceSilentPeer(t *testing.T) {
	leaktest.Check(t)
	defer host.SetHandshakeTimeout(500 * time.Millisecond)()
	co, err := svc.Start(svc.Config{Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	silent, err := net.Dial(co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	start := time.Now()
	silent.SetReadDeadline(start.Add(10 * time.Second))
	if _, err := silent.Read(make([]byte, 1)); err == nil || isTimeout(err) {
		t.Fatalf("silent connection: read = %v, want the coordinator's close", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Errorf("close took %v, deadline was 500ms", e)
	}

	cl, err := svc.Dial(co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Do(wire.JobSpec{App: "jacobi", Set: "small", Procs: 1, Verify: true})
	if err != nil || res.Err != "" {
		t.Errorf("job after the silent peer: err %v, result error %q", err, res.Err)
	}
}
