package apps_test

import (
	"testing"

	"sdsm/internal/apps"
	"sdsm/internal/harness"
	"sdsm/internal/rsd"
)

// TestMessageOrdering: for every application, hand-coded message passing
// sends the fewest messages, the optimized DSM fewer than base — the core
// of the paper's motivation (Section 2).
func TestMessageOrdering(t *testing.T) {
	for _, name := range allApps {
		a := testApp(t, name)
		base, err := harness.Run(harness.Config{App: a, Set: apps.Small, System: harness.Base, Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := harness.Run(harness.Config{App: a, Set: apps.Small, System: harness.Opt, Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		pvme, err := harness.Run(harness.Config{App: a, Set: apps.Small, System: harness.PVMe, Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		if opt.Msgs >= base.Msgs {
			t.Errorf("%s: opt msgs %d >= base %d", name, opt.Msgs, base.Msgs)
		}
		if pvme.Msgs > opt.Msgs {
			t.Errorf("%s: pvme msgs %d > opt %d", name, pvme.Msgs, opt.Msgs)
		}
	}
}

// TestDeterministicRuns: identical configurations produce identical
// times and traffic (the simulator's core guarantee).
func TestDeterministicRuns(t *testing.T) {
	a := testApp(t, "fft")
	run := func() (int64, int64, int64) {
		res, err := harness.Run(harness.Config{App: a, Set: apps.Small, System: harness.Opt, Procs: 8})
		if err != nil {
			t.Fatal(err)
		}
		return int64(res.Time), res.Msgs, res.Bytes
	}
	t1, m1, b1 := run()
	for i := 0; i < 3; i++ {
		t2, m2, b2 := run()
		if t1 != t2 || m1 != m2 || b1 != b2 {
			t.Fatalf("nondeterministic run: (%d,%d,%d) vs (%d,%d,%d)", t1, m1, b1, t2, m2, b2)
		}
	}
}

// TestOddProcessorCounts: partitions that do not divide the problem size
// evenly must still verify. IS is included since the exact block
// partitioning of keys and buckets (PR 3); spmv and tsp run on the base
// system (the compiler cannot analyze either).
func TestOddProcessorCounts(t *testing.T) {
	for _, name := range []string{"jacobi", "gauss", "mgs", "shallow", "is", "spmv", "tsp"} {
		sys := harness.Opt
		if name == "spmv" || name == "tsp" {
			sys = harness.Base
		}
		for _, n := range []int{3, 5, 7} {
			a := testApp(t, name)
			want := harness.SeqChecksum(a, apps.Small)
			res, err := harness.Run(harness.Config{App: a, Set: apps.Small, System: sys, Procs: n, Verify: true})
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if !apps.Close(res.Checksum, want) {
				t.Errorf("%s n=%d: checksum %v, want %v", name, n, res.Checksum, want)
			}
		}
	}
}

// TestSetsDeclared: every application declares its scaled parameters for
// both evaluation data sets.
func TestSetsDeclared(t *testing.T) {
	for _, a := range apps.Registry() {
		for _, set := range []apps.DataSet{apps.Large, apps.Small} {
			if len(a.Sets[set]) == 0 {
				t.Errorf("%s/%s: no scaled parameters declared", a.Name, set)
			}
		}
	}
}

// TestRegistryComplete: the six applications of the evaluation.
func TestRegistryComplete(t *testing.T) {
	want := map[string]bool{"jacobi": true, "fft": true, "is": true, "shallow": true, "gauss": true, "mgs": true}
	for _, a := range apps.Registry() {
		if !want[a.Name] {
			t.Errorf("unexpected app %s", a.Name)
		}
		delete(want, a.Name)
	}
	for name := range want {
		t.Errorf("missing app %s", name)
	}
	if _, err := apps.ByName("nope"); err == nil {
		t.Error("ByName should reject unknown names")
	}
	// The irregular additions resolve by name and appear in All but stay
	// out of the paper registry.
	if _, err := apps.ByName("spmv"); err != nil {
		t.Errorf("ByName(spmv): %v", err)
	}
	if got, want := len(apps.All()), len(apps.Registry())+len(apps.Irregular()); got != want {
		t.Errorf("All() has %d apps, want %d", got, want)
	}
}

// TestChecksumHelpers: the distributed checksum matches the layout-based
// one on identical data.
func TestChecksumHelpers(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	if got, want := apps.ChecksumSlice(vals, 0), float64(1*1+2*2+3*3+4*4+5*5); got != want {
		t.Fatalf("ChecksumSlice = %v, want %v", got, want)
	}
	if !apps.Close(1.0, 1.0+1e-12) {
		t.Error("Close too strict")
	}
	if apps.Close(1.0, 1.1) {
		t.Error("Close too lax")
	}
	_ = rsd.Env{}
}
