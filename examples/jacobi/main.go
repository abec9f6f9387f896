// Jacobi walks the paper's running example end to end: it builds the
// Figure 1 program, shows the access analysis and the Figure 2
// transformation, then runs the four systems of the evaluation and prints
// their speedups side by side.
//
//	go run ./examples/jacobi
//	go run ./examples/jacobi -m 256 -iters 8 -procs 4
package main

import (
	"flag"
	"fmt"
	"os"

	"sdsm/internal/apps"
	"sdsm/internal/compiler"
	"sdsm/internal/harness"
	"sdsm/internal/rsd"
)

func main() {
	var (
		m     = flag.Int("m", 512, "grid dimension")
		iters = flag.Int("iters", 12, "iterations")
		procs = flag.Int("procs", 8, "processors")
	)
	flag.Parse()

	a, _ := apps.ByName("jacobi")
	a.Sets["demo"] = rsd.Env{"m": *m, "iters": *iters, "cscale": 8}
	set := apps.DataSet("demo")

	fmt.Printf("Jacobi %dx%d, %d iterations, %d processors\n\n", *m, *m, *iters, *procs)

	// The compile-time side: what the analysis finds and inserts.
	prog := a.Build(*procs)
	params := prog.Prepare(a.Sets[set], *procs)
	_, rep := compiler.Compile(prog, a.BestOptions(*procs, params))
	fmt.Println("compiler transformation (the paper's Figure 2):")
	fmt.Print(rep.String())
	fmt.Println()

	// The run-time side: the four systems of Figure 5.
	uni := harness.UniTime(a, set)
	fmt.Printf("%-28s %12s %8s %6s %10s\n", "system", "time", "speedup", "msgs", "data")
	for _, sys := range []harness.SystemKind{harness.Base, harness.Opt, harness.XHPF, harness.PVMe} {
		res, err := harness.Run(harness.Config{App: a, Set: set, System: sys, Procs: *procs, Verify: true})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		want := harness.SeqChecksum(a, set)
		ok := "verified"
		if !apps.Close(res.Checksum, want) {
			ok = "MISMATCH"
		}
		fmt.Printf("%-28s %12v %8.2f %6d %8.2fMB  %s\n",
			sys, res.Time, harness.Speedup(uni, res.Time), res.Msgs, float64(res.Bytes)/1e6, ok)
	}
	fmt.Println("\nthe optimized DSM closes most of the gap to hand-coded message")
	fmt.Println("passing while keeping the shared-memory programming model.")
}
