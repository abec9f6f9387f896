package mpnet

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"strings"

	"sdsm/internal/obs"
)

// MetricsEnv names the environment variable that, when set on a worker
// process, makes it serve metrics snapshots while it runs: a TCP listen
// address ("127.0.0.1:0" picks an ephemeral port, logged to stderr) or a
// unix socket spec ("unix;/path/to.sock"). Each connection receives one
// JSON-encoded snapshot and is closed; the counters are atomics, so a
// snapshot can be taken at any point of the run. Workers spawned by the
// coordinator inherit the variable from its environment.
const MetricsEnv = "SDSM_METRICS_ADDR"

// workerSnapshot is the wire shape of one worker metrics snapshot.
type workerSnapshot struct {
	Rank int `json:"rank"`
	obs.Snapshot
}

// serveMetrics starts the snapshot endpoint for one worker rank. The
// returned closer stops the listener.
func serveMetrics(spec string, rank int, reg *obs.Registry) (io.Closer, error) {
	network, addr := "tcp", spec
	if rest, ok := strings.CutPrefix(spec, "unix;"); ok {
		network, addr = "unix", rest
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	fmt.Fprintf(os.Stderr, "sdsm worker rank %d: metrics on %s\n", rank, ln.Addr())
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed at run end
			}
			snap := reg.Snapshot()
			enc, err := json.Marshal(workerSnapshot{Rank: rank, Snapshot: *snap})
			if err == nil {
				c.Write(append(enc, '\n'))
			}
			c.Close()
		}
	}()
	return ln, nil
}

// EnableObs attaches traffic counters to the worker transport: frames and
// accounted payload bytes in each direction, plus coalesced writer
// flushes. Nil-gated at every touch point, so an untraced worker does no
// extra work.
func (t *workerTransport) EnableObs(reg *obs.Registry) {
	t.ep.SetObs(reg.Counter("mp.frames.sent"), reg.Counter("mp.flushes"))
	t.obsSentBytes = reg.Counter("mp.bytes.sent")
	t.obsRecv = reg.Counter("mp.frames.recv")
	t.obsRecvBytes = reg.Counter("mp.bytes.recv")
}
