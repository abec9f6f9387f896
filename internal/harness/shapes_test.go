package harness

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"sdsm/internal/apps"
)

// sweepWorkers sizes the experiment scheduler's pool for the full-size
// sweeps: every run is self-contained, so the sweeps parallelize across
// cores without changing any virtual-time result.
func sweepWorkers() int { return runtime.GOMAXPROCS(0) }

// The shape tests assert the paper's qualitative claims (see DESIGN.md):
// who wins, in which direction the optimizations act, and where the
// applicability boundaries fall. Absolute values are platform-model
// dependent and are reported by cmd/sdsm-experiments instead.

func fig5Rows(t *testing.T) []Fig5Row {
	t.Helper()
	rows, err := Fig5(8, sweepWorkers())
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func row(t *testing.T, rows []Fig5Row, app string, set apps.DataSet) Fig5Row {
	t.Helper()
	for _, r := range rows {
		if r.App == app && r.Set == set {
			return r
		}
	}
	t.Fatalf("no row for %s/%s", app, set)
	return Fig5Row{}
}

func TestPaperShapeFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	rows := fig5Rows(t)

	for _, r := range rows {
		// Claim 1: the compiler-optimized system improves on base
		// TreadMarks everywhere (4-59% in the paper; allow measurement
		// noise of 1%).
		if r.Opt < r.Base*0.99 {
			t.Errorf("%s/%s: opt (%.2f) worse than base (%.2f)", r.App, r.Set, r.Opt, r.Base)
		}
		// Claim 2: message passing is the upper bound; opt narrows the gap.
		if r.Opt > r.PVMe*1.02 {
			t.Errorf("%s/%s: opt (%.2f) beats PVMe (%.2f); message passing must win", r.App, r.Set, r.Opt, r.PVMe)
		}
		if r.Base > r.Opt*1.02 {
			t.Errorf("%s/%s: base (%.2f) above opt (%.2f)", r.App, r.Set, r.Base, r.Opt)
		}
		// XHPF sits between opt and PVMe (within a whisker) where it runs.
		if r.XHPF > 0 && r.XHPF > r.PVMe*1.02 {
			t.Errorf("%s/%s: XHPF (%.2f) beats PVMe (%.2f)", r.App, r.Set, r.XHPF, r.PVMe)
		}
	}

	// Claim: the biggest gains are for IS and 3D-FFT, the programs where
	// base TreadMarks performs poorly (48-59% in the paper).
	for _, name := range []string{"fft", "is"} {
		for _, set := range []apps.DataSet{apps.Large, apps.Small} {
			r := row(t, rows, name, set)
			if impr := 1 - r.Base/r.Opt; impr < 0.25 {
				t.Errorf("%s/%s: improvement only %.0f%%, expected large (paper: 48-59%%)", name, set, impr*100)
			}
		}
	}
	// Claim: for programs with good base speedups the improvements are
	// moderate but present.
	for _, name := range []string{"jacobi", "shallow", "gauss", "mgs"} {
		r := row(t, rows, name, apps.Large)
		if r.Base < 4 {
			t.Errorf("%s/large: base speedup %.2f; paper has these codes performing well", name, r.Base)
		}
	}
	// Claim: IS stays noticeably behind PVMe even optimized (17-29% in the
	// paper, because PVMe pipelines the transfer).
	r := row(t, rows, "is", apps.Large)
	if r.Opt > r.PVMe*0.95 {
		t.Errorf("is/large: opt (%.2f) too close to PVMe (%.2f); the pipelined MP version must win clearly", r.Opt, r.PVMe)
	}
}

func TestPaperShapeXHPFRejectsIS(t *testing.T) {
	a, _ := apps.ByName("is")
	_, err := Run(Config{App: a, Set: apps.Small, System: XHPF, Procs: 4})
	if err == nil {
		t.Fatal("XHPF must reject IS (indirect access to the main array)")
	}
	if !strings.Contains(err.Error(), "indirect access to the main array") {
		t.Errorf("IS rejection must be explained, got: %v", err)
	}
	for _, name := range []string{"jacobi", "fft", "shallow", "gauss", "mgs"} {
		a, _ := apps.ByName(name)
		if _, err := Run(Config{App: a, Set: apps.Small, System: XHPF, Procs: 4}); err != nil {
			t.Errorf("%s should be parallelizable: %v", name, err)
		}
	}
}

func TestPaperShapeTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	rows, err := Table2(8, sweepWorkers())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Messages always drop (25-96% in the paper).
		if r.MsgPct <= 0 {
			t.Errorf("%s/%s: no message reduction (%.1f%%)", r.App, r.Set, r.MsgPct)
		}
		// Page faults always drop.
		if r.SegvPct <= 0 {
			t.Errorf("%s/%s: no fault reduction (%.1f%%)", r.App, r.Set, r.SegvPct)
		}
		// Jacobi's data volume increases (whole pages replace small diffs).
		if r.App == "jacobi" && r.DataPct >= 0 {
			t.Errorf("jacobi/%s: data should increase under WRITE_ALL (got %.1f%% reduction)", r.Set, r.DataPct)
		}
		// IS data drops substantially (diff accumulation avoided).
		if r.App == "is" && r.DataPct < 30 {
			t.Errorf("is/%s: data reduction %.1f%%, expected large", r.Set, r.DataPct)
		}
	}
}

func TestPaperShapeFig6(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	rows, err := Fig6(8, sweepWorkers())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Communication aggregation and consistency elimination never hurt
		// materially (claim 1 of Section 6.4; for Jacobi the paper notes
		// the gain is partly offset by increased data volume, so allow a
		// small dip).
		if r.Levels[1] < r.Levels[0]*0.97 {
			t.Errorf("%s/%s: aggregation hurt (%.2f -> %.2f)", r.App, r.Set, r.Levels[0], r.Levels[1])
		}
		if r.Levels[2] < r.Levels[1]*0.97 {
			t.Errorf("%s/%s: consistency elimination hurt (%.2f -> %.2f)", r.App, r.Set, r.Levels[1], r.Levels[2])
		}
		// Applicability matrix (paper Figure 6 captions).
		switch r.App {
		case "shallow":
			if r.Applies[3] || r.Applies[4] {
				t.Errorf("shallow: wsync/push must be inapplicable")
			}
		case "is", "gauss", "mgs":
			if r.Applies[4] {
				t.Errorf("%s: push must be inapplicable", r.App)
			}
		case "jacobi", "fft":
			if !r.Applies[4] {
				t.Errorf("%s: push must be applicable", r.App)
			}
		}
	}
	// Sync+data merging helps Gauss and MGS (broadcast of the pivot data).
	for _, name := range []string{"gauss", "mgs"} {
		for _, r := range rows {
			if r.App == name && r.Levels[3] < r.Levels[2] {
				t.Errorf("%s/%s: merging should help via broadcast (%.2f -> %.2f)", name, r.Set, r.Levels[2], r.Levels[3])
			}
		}
	}
	// Push helps Jacobi's small set (barrier cost proportionally higher).
	for _, r := range rows {
		if r.App == "jacobi" && r.Set == apps.Small && r.Levels[4] <= r.Levels[3] {
			t.Errorf("jacobi/small: push should help (%.2f -> %.2f)", r.Levels[3], r.Levels[4])
		}
		if r.App == "fft" && r.Levels[4] < r.Levels[2]*0.99 {
			t.Errorf("fft/%s: push should not hurt vs cons-elim (%.2f -> %.2f)", r.Set, r.Levels[2], r.Levels[4])
		}
	}
}

func TestPaperShapeMicro(t *testing.T) {
	m, err := Micro()
	if err != nil {
		t.Fatal(err)
	}
	if m.RoundTrip != 365*time.Microsecond {
		t.Errorf("roundtrip = %v, want 365µs", m.RoundTrip)
	}
	if m.LockAcquire != 427*time.Microsecond {
		t.Errorf("lock acquire = %v, want 427µs", m.LockAcquire)
	}
	if m.Barrier8 < 800*time.Microsecond || m.Barrier8 > 1000*time.Microsecond {
		t.Errorf("barrier = %v, want ~893µs", m.Barrier8)
	}
}

func TestSpeedupScalesWithProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	// Extension: speedups grow with processor count for the well-behaved
	// codes (the paper's evaluation stops at 8; this guards monotonicity).
	a, _ := apps.ByName("jacobi")
	uni := UniTime(a, apps.Large)
	prev := 0.0
	for _, n := range []int{2, 4, 8} {
		res, err := Run(Config{App: a, Set: apps.Large, System: Opt, Procs: n})
		if err != nil {
			t.Fatal(err)
		}
		sp := Speedup(uni, res.Time)
		if sp <= prev {
			t.Errorf("speedup not increasing at n=%d: %.2f <= %.2f", n, sp, prev)
		}
		prev = sp
	}
}
