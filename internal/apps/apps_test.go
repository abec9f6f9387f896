package apps_test

import (
	"testing"

	"sdsm/internal/apps"
	"sdsm/internal/compiler"
	"sdsm/internal/harness"
	"sdsm/internal/rsd"
)

// small test-sized parameter overrides to keep the suite fast
func testApp(t *testing.T, name string) *apps.App {
	t.Helper()
	a, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	switch name {
	case "jacobi":
		a.Sets[apps.Small] = rsd.Env{"m": 128, "iters": 4}
	case "fft":
		a.Sets[apps.Small] = rsd.Env{"nx": 8, "ny": 16, "nz": 8, "iters": 2}
	case "is":
		a.Sets[apps.Small] = rsd.Env{"keys": 1 << 12, "buckets": 1 << 11, "iters": 2}
	case "shallow":
		a.Sets[apps.Small] = rsd.Env{"m": 128, "mc": 32, "iters": 3}
	case "gauss":
		a.Sets[apps.Small] = rsd.Env{"m": 96, "mpad": 128}
	case "mgs":
		a.Sets[apps.Small] = rsd.Env{"m": 128, "nvec": 48, "mpad": 128}
	case "spmv":
		a.Sets[apps.Small] = rsd.Env{"n": 4096, "iters": 4}
	}
	return a
}

// allApps are the paper's six applications (every system variant exists);
// dsmApps additionally includes the irregular workloads, which run on the
// DSM systems only.
var (
	allApps = []string{"jacobi", "fft", "is", "shallow", "gauss", "mgs"}
	dsmApps = []string{"jacobi", "fft", "is", "shallow", "gauss", "mgs", "spmv"}
)

func TestSeqDeterministic(t *testing.T) {
	for _, name := range dsmApps {
		a := testApp(t, name)
		c1 := harness.SeqChecksum(a, apps.Small)
		c2 := harness.SeqChecksum(a, apps.Small)
		if c1 != c2 || c1 == 0 {
			t.Errorf("%s: sequential checksum unstable or zero: %v vs %v", name, c1, c2)
		}
	}
}

// TestBaseDSMMatchesSeq checks that the unmodified programs on the base
// TreadMarks runtime compute the same results as the sequential reference
// at several processor counts.
func TestBaseDSMMatchesSeq(t *testing.T) {
	for _, name := range dsmApps {
		for _, n := range []int{1, 2, 4, 8} {
			a := testApp(t, name)
			want := harness.SeqChecksum(a, apps.Small)
			res, err := harness.Run(harness.Config{
				App: a, Set: apps.Small, System: harness.Base, Procs: n, Verify: true,
			})
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if !apps.Close(res.Checksum, want) {
				t.Errorf("%s n=%d: base checksum %v, want %v", name, n, res.Checksum, want)
			}
		}
	}
}

// TestOptDSMMatchesSeq checks the compiler-transformed programs.
func TestOptDSMMatchesSeq(t *testing.T) {
	for _, name := range allApps {
		for _, n := range []int{1, 2, 4, 8} {
			a := testApp(t, name)
			want := harness.SeqChecksum(a, apps.Small)
			res, err := harness.Run(harness.Config{
				App: a, Set: apps.Small, System: harness.Opt, Procs: n, Verify: true,
			})
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if !apps.Close(res.Checksum, want) {
				t.Errorf("%s n=%d: opt checksum %v, want %v", name, n, res.Checksum, want)
			}
		}
	}
}

// TestMPMatchesSeq checks the hand-coded message-passing versions.
func TestMPMatchesSeq(t *testing.T) {
	for _, name := range allApps {
		for _, n := range []int{1, 2, 4, 8} {
			a := testApp(t, name)
			want := harness.SeqChecksum(a, apps.Small)
			res, err := harness.Run(harness.Config{
				App: a, Set: apps.Small, System: harness.PVMe, Procs: n, Verify: true,
			})
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if !apps.Close(res.Checksum, want) {
				t.Errorf("%s n=%d: pvme checksum %v, want %v", name, n, res.Checksum, want)
			}
		}
	}
}

// TestAllLevelsMatchSeq checks every Figure 6 optimization level for
// correctness.
func TestAllLevelsMatchSeq(t *testing.T) {
	for _, name := range allApps {
		a := testApp(t, name)
		want := harness.SeqChecksum(a, apps.Small)
		prog := a.Build(4)
		params := prog.Prepare(a.Sets[apps.Small], 4)
		for li, lvl := range compiler.Levels(4, params) {
			if li == 0 {
				continue // base: no compilation
			}
			res, err := harness.Run(harness.Config{
				App: a, Set: apps.Small, System: harness.Opt, Procs: 4,
				Verify: true, Level: &lvl,
			})
			if err != nil {
				t.Fatalf("%s level %d: %v", name, li, err)
			}
			if !apps.Close(res.Checksum, want) {
				t.Errorf("%s level %s: checksum %v, want %v", name, harness.LevelNames[li], res.Checksum, want)
			}
		}
	}
}

// TestXHPFMatchesSeqOrRejects checks the XHPF stand-in, including its
// rejection of IS.
func TestXHPFMatchesSeqOrRejects(t *testing.T) {
	for _, name := range allApps {
		a := testApp(t, name)
		res, err := harness.Run(harness.Config{
			App: a, Set: apps.Small, System: harness.XHPF, Procs: 4, Verify: true,
		})
		if name == "is" {
			if err == nil {
				t.Error("is: XHPF stand-in should reject IS")
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := harness.SeqChecksum(a, apps.Small)
		if !apps.Close(res.Checksum, want) {
			t.Errorf("%s: xhpf checksum %v, want %v", name, res.Checksum, want)
		}
	}
}

// TestSyncFetchMatchesSeq checks the synchronous-fetch variant (Figure 7).
func TestSyncFetchMatchesSeq(t *testing.T) {
	for _, name := range allApps {
		a := testApp(t, name)
		want := harness.SeqChecksum(a, apps.Small)
		res, err := harness.Run(harness.Config{
			App: a, Set: apps.Small, System: harness.Opt, Procs: 4,
			Verify: true, SyncFetch: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !apps.Close(res.Checksum, want) {
			t.Errorf("%s: sync-fetch checksum %v, want %v", name, res.Checksum, want)
		}
	}
}
