package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords loads the end-to-end records of an -out file, grouped by
// workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace != 0 {
			continue // per-layer records carry no bound
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}

// compareFiles holds set b against set a: one row per (workload,
// end-to-end metric) with each side's median and its own run-to-run
// spread (interquartile distance over median). A median worse than a's by
// more than the metric's bound is "regressed", better by more than it
// "improved"; otherwise the row is "unchanged" — unless either side's own
// spread exceeds the bound, in which case the runs cannot tell and the row
// says "unresolved". It reports whether any row regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-10s %-16s %14s %7s %14s %7s %8s %6s  %s\n",
		"workload", "metric", "a.median", "a.iqr", "b.median", "b.iqr", "worse", "bound", "verdict")
	for _, wl := range workloads() {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		values := func(rs []record, name string) []float64 {
			var v []float64
			for _, r := range rs {
				if m, ok := r.Metrics[name]; ok {
					v = append(v, m.Value)
				}
			}
			return v
		}
		for _, m := range endToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			sa, sb := spread(va), spread(vb)
			// worse > 0: b is worse than a by that share of a's median.
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "unchanged"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			case worse < -m.Bound:
				verdict = "improved"
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-10s %-16s %14.4f %6.1f%% %14.4f %6.1f%% %+7.1f%% %5.0f%%  %s (n=%d,%d)\n",
				wl.name, m.Name, ma, 100*sa, mb, 100*sb, 100*worse, 100*m.Bound, verdict, len(va), len(vb))
		}
	}
	return regressed, nil
}
