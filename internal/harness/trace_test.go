package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sdsm/internal/apps"
	"sdsm/internal/obs"
)

// traceConfig is the pinned tracing configuration: small jacobi with a
// deliberately tiny ring so the export exercises the wraparound path
// (oldest events dropped) and the golden file stays reviewable.
func traceConfig(t *testing.T) Config {
	t.Helper()
	a, err := apps.ByName("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	return Config{App: a, Set: apps.Small, System: Base, Procs: 4, Trace: true, TraceCap: 160}
}

func traceJSON(t *testing.T, cfg Config) (*Result, []byte) {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, res.Trace); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestTraceDeterministic runs the same traced sim configuration twice and
// requires byte-identical Perfetto JSON — the trace inherits the sim
// backend's determinism (virtual clocks, FIFO serve order, per-pair flow
// sequence counters), so any divergence means nondeterminism leaked into
// the event stream or the export. The output is additionally pinned
// against a checked-in golden; regenerate with
//
//	go test ./internal/harness -run TestTraceDeterministic -update
func TestTraceDeterministic(t *testing.T) {
	cfg := traceConfig(t)
	_, first := traceJSON(t, cfg)
	_, second := traceJSON(t, cfg)
	if !bytes.Equal(first, second) {
		t.Fatalf("two traced runs produced different JSON (%d vs %d bytes)", len(first), len(second))
	}
	path := filepath.Join("testdata", "trace_jacobi_small.golden")
	if *updateGolden {
		if err := os.WriteFile(path, first, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing trace golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(first, want) {
		t.Errorf("trace JSON differs from %s byte-for-byte (%d vs %d bytes)", path, len(first), len(want))
	}
}

// TestTraceInvisible pins the zero-cost-when-on half of the observability
// contract on the sim backend: arming the tracer must not move a single
// protocol-visible number. Every deterministic Result field — virtual
// time, traffic, vm counters, the full protocol stat block — must be
// identical between a traced and an untraced run of the same
// configuration.
func TestTraceInvisible(t *testing.T) {
	cfg := traceConfig(t)
	plainCfg := cfg
	plainCfg.Trace, plainCfg.TraceCap = false, 0
	plain, err := Run(plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Time != traced.Time {
		t.Errorf("virtual time perturbed: untraced %v, traced %v", plain.Time, traced.Time)
	}
	if plain.Msgs != traced.Msgs || plain.Bytes != traced.Bytes {
		t.Errorf("traffic perturbed: untraced %d msgs/%d bytes, traced %d/%d",
			plain.Msgs, plain.Bytes, traced.Msgs, traced.Bytes)
	}
	if plain.VM != traced.VM {
		t.Errorf("vm counters perturbed:\nuntraced %+v\ntraced   %+v", plain.VM, traced.VM)
	}
	if plain.Protocol != traced.Protocol {
		t.Errorf("protocol stats perturbed:\nuntraced %+v\ntraced   %+v", plain.Protocol, traced.Protocol)
	}
	if plain.Checksum != traced.Checksum {
		t.Errorf("checksum perturbed: untraced %v, traced %v", plain.Checksum, traced.Checksum)
	}
	if traced.Trace == nil {
		t.Fatal("traced run returned no trace machine")
	}
	events := 0
	for _, nt := range traced.Trace.Nodes {
		events += nt.Len()
	}
	if events == 0 {
		t.Error("traced run recorded no events")
	}
}

// TestTraceLockContention runs the lock-dominated app traced and reads
// the exported trace back through the analyzer: the lock-contention table
// must carry a row for tsp's work-queue lock (ID 0) with waits and
// grants on it, the report sdsm-trace exists to give.
func TestTraceLockContention(t *testing.T) {
	a, err := apps.ByName("tsp")
	if err != nil {
		t.Fatal(err)
	}
	_, js := traceJSON(t, Config{App: a, Set: apps.Small, System: Base, Procs: 4, Trace: true})
	rep, err := obs.Analyze(js, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(rep, "\nlock contention:\n")
	if !ok {
		t.Fatalf("report has no lock-contention section:\n%s", rep)
	}
	for _, line := range strings.Split(table, "\n")[1:] { // [0] is the header
		var lock, waits, grants, piggy, bytes int
		var waitUS, maxUS float64
		if n, _ := fmt.Sscan(line, &lock, &waits, &waitUS, &maxUS, &grants, &piggy, &bytes); n == 7 && lock == 0 {
			if waits == 0 || grants == 0 || waitUS <= 0 {
				t.Errorf("work-queue lock row shows no contention: %q", line)
			}
			return
		}
	}
	t.Fatalf("lock table has no row for the work-queue lock:\n%s", table)
}

// TestTraceRecovery arms tracing, checkpointing and an injected fault
// together: every node's ring must hold checkpoint events, and the
// victim's both recovery phases — the death, then the restore span. The
// net leg is also the one test that arms the backends' own counters
// (host.Net.EnableObs and the queue/switch SetObs under it).
func TestTraceRecovery(t *testing.T) {
	a, err := apps.ByName("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range []Backend{BackendSim, BackendNet} {
		t.Run(string(be), func(t *testing.T) {
			const victim = 1
			res := runRecovery(t, Config{
				App: a, Set: apps.Small, System: Base, Procs: 3, Backend: be,
				Recover: true, Fault: &FaultPlan{Rank: victim, Epoch: 2}, Trace: true,
			})
			for i, nt := range res.Trace.Nodes {
				var ckpts int
				var phases []int32
				for _, e := range nt.Events() {
					switch e.Kind {
					case obs.EvCkpt:
						ckpts++
					case obs.EvRecover:
						phases = append(phases, e.A)
					}
				}
				if ckpts == 0 {
					t.Errorf("node %d: no checkpoint events in the ring", i)
				}
				want := []int32(nil)
				if i == victim {
					want = []int32{0, 1}
				}
				if !slices.Equal(phases, want) {
					t.Errorf("node %d: recovery phases %v, want %v", i, phases, want)
				}
			}
			if be == BackendNet && res.Trace.Reg.Snapshot().Counters["net.frames"] == 0 {
				t.Error("traced net run counted no frames")
			}
		})
	}
}
