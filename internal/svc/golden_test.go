package svc

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sdsm/internal/leaktest"
)

var updateGolden = flag.Bool("update", false, "rewrite the Table D golden")

// TestTableDGolden pins Table D's deterministic columns: a fixed load
// mix through the warm pool must aggregate to byte-identical job
// counts, checksums, and virtual times on every machine and every pool
// topology (wall-clock latency is reported by FormatTableD but never
// pinned). The mix is the CI load smoke's (tableDMix).
func TestTableDGolden(t *testing.T) {
	leaktest.Check(t)
	_, cl := startService(t, Config{Slots: 8, QueueCap: 64})
	rep, err := RunLoad(cl, LoadConfig{
		Jobs:        24,
		Concurrency: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Rows {
		if !r.Consistent {
			t.Errorf("%s/%s: jobs disagree on checksum or virtual time", r.App, r.Set)
		}
	}
	if rep.Errors != 0 {
		t.Fatalf("%d job errors in the golden mix", rep.Errors)
	}
	got := FormatTableDGolden(rep)
	path := filepath.Join("testdata", "tabled.golden")
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
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("Table D deterministic columns drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}
