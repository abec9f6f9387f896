package harness

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden experiment tables")

// TestGoldenTables pins the deterministic sim-backend experiment output —
// the paper's virtual-time numbers — byte for byte against checked-in
// snapshots. Any refactor of the engine, protocol, transport, or cost
// model that moves a number fails here; an intentional recalibration
// regenerates the snapshots with
//
//	go test ./internal/harness -run TestGoldenTables -update
//
// The list is harness.Experiments — the table sdsm-experiments itself
// dispatches over; the fast entries run in -short mode, the full
// evaluation otherwise. This replaces the manual "diff sdsm-experiments output before and after"
// ritual the repo used through PR 1.
func TestGoldenTables(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	for _, g := range Experiments {
		t.Run(g.Name, func(t *testing.T) {
			if g.Slow && testing.Short() {
				t.Skip("full evaluation table; run without -short")
			}
			got, err := g.Run(DefaultProcs, workers)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", g.Name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s output differs from %s byte-for-byte.\n--- got ---\n%s\n--- want ---\n%s",
					g.Name, path, got, want)
			}
		})
	}
}
