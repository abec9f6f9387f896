// Command bench is the host-time ledger: five workloads, eight end-to-end
// metrics measured with tracing off, and a traced pass that attributes
// host time to the layers a job crosses. BENCHMARK.json at the repository
// root names it; README.md explains the workloads, the metrics and how a
// later change states its claim against them.
//
//	bash bench/run.sh -workload sim-base -seed 1 -seconds 12 -trace 0
//	bash bench/run.sh -seed 1 -out a.jsonl     # every workload, both passes
//	bash bench/run.sh -compare a.jsonl b.jsonl # did anything move?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one pass over one workload: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	samples int    // ops behind the percentiles, for the printed table
	note    string // how the pass scaled its times, for the printed table
}

func newResult(attempted, failed int) *result {
	return &result{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricValue{},
	}
}

var units = func() map[string]string {
	u := map[string]string{}
	for _, m := range endToEnd {
		u[m.Name] = m.Unit
	}
	for _, m := range perLayer {
		u[m.Name] = m.Unit
	}
	return u
}()

// set records a metric of the contract under its declared unit. A name
// outside the contract is a bug in the benchmark; a value that is not
// finite marks the run incorrect rather than emitting JSON no one can read.
func (r *result) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not in the spec")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		fmt.Fprintf(os.Stderr, "bench: metric %s is not finite\n", name)
		r.Correct = false
		v = 0
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

// environment is the recorded header of a run.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
}

func currentEnvironment() environment {
	commit := os.Getenv("BENCH_COMMIT") // run.sh sets it from git
	if commit == "" {
		commit = "unknown"
	}
	return environment{
		Commit: commit, GoVersion: runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
	}
}

// record is one line of an -out file: a result with what produced it.
type record struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Trace    int         `json:"trace"`
	Env      environment `json:"env"`
	result
}

func (r *result) print(w workload, trace int) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s trace=%d: %d ops attempted, %d failed, %d samples behind the percentiles\n",
		w.name, trace, r.Attempted, r.Failed, r.samples)
	if r.note != "" {
		fmt.Printf("# %s\n", r.note)
	}
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-52s %16.4f %s\n", n, m.Value, m.Unit)
	}
}

// runPass runs one pass, prints its table and its result line, and
// appends the record to outFile when one is named.
func runPass(w workload, trace int, opt options, outFile string) (*result, error) {
	pass := endToEndPass
	if trace == 1 {
		pass = tracedPass
	}
	res, err := pass(w, opt)
	if res == nil {
		return nil, err
	}
	res.print(w, trace)
	if err != nil {
		res.Correct = false
		fmt.Fprintln(os.Stderr, err)
	}
	if outFile != "" {
		rec, merr := json.Marshal(record{w.name, opt.seed, trace, currentEnvironment(), *res})
		if merr == nil {
			merr = appendLine(outFile, rec)
		}
		if merr != nil {
			return res, merr
		}
	}
	line, merr := json.Marshal(res)
	if merr != nil {
		return res, merr
	}
	fmt.Println(string(line))
	return res, nil
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "shuffles config order within each round (job order on svc-mix); never reaches the program")
		seconds = flag.Float64("seconds", runSeconds, "length of the timed section")
		trace   = flag.Int("trace", -1, "0: end-to-end pass, tracing off; 1: traced per-layer pass; default: both, in that order")
		nrounds = flag.Int("rounds", 0, "run exactly this many rounds instead of for -seconds")
		out     = flag.String("out", "", "append each pass's record to this JSON-lines file (input of -compare)")
		outDir  = flag.String("outdir", "bench/out", "where the traced pass writes spans and profiles")
		compare = flag.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *spec {
		fmt.Print(specJSON())
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.jsonl b.jsonl")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	ws := workloads()
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ws = []workload{w}
	}
	traces := []int{0, 1}
	if *trace == 0 || *trace == 1 {
		traces = []int{*trace}
	}
	env := currentEnvironment()
	fmt.Printf("# commit %s  %s  GOMAXPROCS %d  nproc %d  seed %d\n",
		env.Commit, env.GoVersion, env.GoMaxProcs, env.NumCPU, *seed)
	opt := options{seed: *seed, seconds: *seconds, rounds: *nrounds, setups: 3, outDir: *outDir}
	ok := true
	for _, w := range ws {
		for _, tr := range traces {
			res, err := runPass(w, tr, opt, *out)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			if res == nil || !res.Correct {
				ok = false
			}
		}
	}
	if !ok {
		os.Exit(1)
	}
}
