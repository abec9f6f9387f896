package harness

import (
	"strings"
	"testing"
	"time"

	"sdsm/internal/apps"
)

func TestFormatters(t *testing.T) {
	t1 := FormatTable1([]Table1Row{{App: "jacobi", Set: apps.Large, Params: "m=512", Measured: time.Second, Paper: 288 * time.Second}})
	if !strings.Contains(t1, "jacobi") || !strings.Contains(t1, "288.00s") {
		t.Errorf("Table1 formatting:\n%s", t1)
	}
	t2 := FormatTable2([]Table2Row{{App: "is", Set: apps.Small, SegvPct: 90, MsgPct: 60, DataPct: 66, PaperSegv: 90.1, PaperMsg: 60.7, PaperData: 66.3}})
	if !strings.Contains(t2, "is") || !strings.Contains(t2, "66.3") {
		t.Errorf("Table2 formatting:\n%s", t2)
	}
	f5 := FormatFig5([]Fig5Row{{App: "is", Set: apps.Large, Base: 1.8, Opt: 3.9, PVMe: 4.5}}, 8)
	if !strings.Contains(f5, "is") || !strings.Contains(f5, "-") {
		t.Errorf("Fig5 must blank XHPF for IS:\n%s", f5)
	}
	f6 := FormatFig6([]Fig6Row{{App: "shallow", Set: apps.Large, Levels: [5]float64{5, 6, 6, 6, 6}, Applies: [5]bool{true, true, true, false, false}}}, 8)
	if !strings.Contains(f6, "n/a") {
		t.Errorf("Fig6 must mark inapplicable levels:\n%s", f6)
	}
	f7 := FormatFig7([]Fig7Row{{App: "mgs", Base: 6, Sync: 6.3, Async: 6.3}}, 8)
	if !strings.Contains(f7, "mgs") {
		t.Errorf("Fig7 formatting:\n%s", f7)
	}
	m := FormatMicro(&MicroResult{RoundTrip: 365 * time.Microsecond, LockAcquire: 427 * time.Microsecond,
		Barrier8: 893 * time.Microsecond, ProtMin: 18 * time.Microsecond, ProtMax: 800 * time.Microsecond})
	for _, want := range []string{"365.0µs", "427.0µs", "893.0µs"} {
		if !strings.Contains(m, want) {
			t.Errorf("micro formatting missing %s:\n%s", want, m)
		}
	}
}

func TestRunRejectsUnknownSystem(t *testing.T) {
	a, _ := apps.ByName("jacobi")
	if _, err := Run(Config{App: a, Set: apps.Small, System: "bogus", Procs: 2}); err == nil {
		t.Fatal("unknown system must error")
	}
}

func TestSpeedupGuards(t *testing.T) {
	if Speedup(time.Second, 0) != 0 {
		t.Error("zero parallel time must not divide by zero")
	}
	if got := Speedup(8*time.Second, time.Second); got != 8 {
		t.Errorf("Speedup = %v", got)
	}
}

// Run validates what it is given before building anything: each bad
// configuration must come back as an error naming the field — never a
// panic from a lower layer, never a silently unarmed fault.
func TestRunRejectsUnknownBackend(t *testing.T) {
	a, _ := apps.ByName("jacobi")
	for _, tc := range []struct {
		name   string
		cfg    Config
		want   string // substring the error must contain
		mpOnly bool   // a DSM option that only a message-passing system must refuse
	}{
		{"backend", Config{Procs: 2, Backend: "reall"}, `backend "reall"`, false},
		{"zero procs", Config{Procs: 0}, "Procs", false},
		{"negative procs", Config{Procs: -3}, "Procs", false},
		{"fault rank beyond machine", Config{Procs: 3, Fault: &FaultPlan{Rank: 7, Epoch: 1}}, "Fault.Rank", false},
		{"negative fault rank", Config{Procs: 3, Fault: &FaultPlan{Rank: -1, Epoch: 1}}, "Fault.Rank", false},
		{"adapt", Config{Procs: 2, Adapt: true}, "Adapt", true},
		{"scale", Config{Procs: 2, Scale: true}, "Scale", true},
		// A message-passing fault is a process kill, placed by AfterFrames
		// (Epoch is a DSM notion and legitimately zero): only the net
		// backend has processes to kill. mpnet.TestHarnessMPFault covers
		// the plan that runs.
		{"process kill off net", Config{Procs: 3, Backend: BackendSim, Fault: &FaultPlan{Rank: 0, AfterFrames: 3}}, "Fault", true},
	} {
		for _, sys := range []SystemKind{Base, PVMe} { // MP systems must validate too
			if tc.mpOnly && sys == Base {
				continue
			}
			cfg := tc.cfg
			cfg.App, cfg.Set, cfg.System = a, apps.Small, sys
			if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s/%s: error = %v, want one mentioning %s", tc.name, sys, err, tc.want)
			}
		}
	}
	noEpoch := Config{App: a, Set: apps.Small, System: Base, Procs: 3, Fault: &FaultPlan{Rank: 1}}
	if _, err := Run(noEpoch); err == nil || !strings.Contains(err.Error(), "Fault.Epoch") {
		t.Errorf("DSM fault without an epoch: error = %v, want one mentioning Fault.Epoch", err)
	}
}
