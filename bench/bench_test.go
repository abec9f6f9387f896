package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecIsBenchmarkJSON pins the checked-in BENCHMARK.json to the table
// the benchmark emits from (bench -spec regenerates it).
func TestSpecIsBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != specJSON() {
		t.Fatal("BENCHMARK.json differs from `bench -spec`; regenerate it")
	}
}

// TestSpecWithinContract checks the limits the driver refuses a
// BENCHMARK.json for.
func TestSpecWithinContract(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	ws := workloads()
	if len(ws) < 2 || len(ws) > 8 {
		t.Errorf("%d workloads", len(ws))
	}
	for _, w := range ws {
		name(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
		if len(w.round)%2 == 0 {
			t.Errorf("%s: a round of %d ops puts the pooled median between two configs", w.name, len(w.round))
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	setup := false
	for _, m := range endToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing")
	}
	for _, m := range perLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	if len(specJSON()) > 64<<10 {
		t.Error("BENCHMARK.json over 64 KiB")
	}
}

// checkMetrics asserts that res carries exactly the wanted metrics, each
// finite and under its declared unit, and that no op failed.
func checkMetrics(t *testing.T, res *result, want map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct %v, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	// Read the line back as the driver does. The metrics are a map, so a
	// name cannot appear twice; missing and stray names are the risk.
	var keys struct {
		Metrics map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	for n, unit := range want {
		m, ok := keys.Metrics[n]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", n)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is not finite", n)
		case m.Unit != unit:
			t.Errorf("metric %s: unit %q, spec says %q", n, m.Unit, unit)
		}
	}
	for n := range keys.Metrics {
		if _, ok := want[n]; !ok {
			t.Errorf("metric %s is not in the spec", n)
		}
	}
}

// TestEveryMetricEmitted runs one round of every workload (six rounds,
// 42 jobs, on svc-mix) through both passes.
func TestEveryMetricEmitted(t *testing.T) {
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range endToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range perLayer {
		layers[m.Name] = m.Unit
	}
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			opt := options{seed: 1, rounds: 1, setups: 1, outDir: dir}
			if w.svc {
				opt.rounds = 6
			}
			res, err := endToEndPass(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, e2e)
			for _, m := range endToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; the contract wants it never 0", m.Name, res.Metrics[m.Name].Value)
				}
			}

			opt.rounds = 1
			res, err = tracedPass(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, layers)
			for _, c := range w.configs {
				if res.Metrics["harness.run_p50_ms."+c.name].Value <= 0 {
					t.Errorf("no run time for %s", c.name)
				}
			}
			for _, f := range []string{".spans.json", ".cpu.pprof", ".heap.pprof"} {
				if st, err := os.Stat(filepath.Join(dir, w.name+f)); err != nil || st.Size() == 0 {
					t.Errorf("traced pass left no %s%s", w.name, f)
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale map[string]float64, noisy string) string {
		var b bytes.Buffer
		for i := 0; i < 10; i++ {
			res := newResult(10, 0)
			for _, m := range endToEnd {
				v := 100.0 + 0.1*float64(i)
				if s, ok := scale[m.Name]; ok {
					v *= s
				}
				if m.Name == noisy {
					v *= 1 + 0.1*float64(i) // spread far over any bound
				}
				res.set(m.Name, v)
			}
			line, err := json.Marshal(record{"sim-base", int64(i), 0, environment{}, *res})
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.jsonl", nil, "op_p90_ms")
	b := write("b.jsonl", map[string]float64{"op_p50_ms": 1.5, "ops_per_s": 1.5, "cpu_ms_per_op": 1.01}, "op_p90_ms")
	var out bytes.Buffer
	regressed, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("a 50% slower median did not count as a regression")
	}
	for metric, verdict := range map[string]string{
		"op_p50_ms": "regressed", "ops_per_s": "improved",
		"cpu_ms_per_op": "unchanged", "op_p90_ms": "unresolved",
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 1 && f[0] == "sim-base" && f[1] == metric {
				found = strings.Contains(line, verdict)
			}
		}
		if !found {
			t.Errorf("%s: want verdict %q in\n%s", metric, verdict, out.String())
		}
	}
}
