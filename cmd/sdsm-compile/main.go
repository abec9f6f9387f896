// Command sdsm-compile runs the compile-time analysis on one of the
// evaluation programs and prints the transformation report: the Validate,
// Validate_w_sync, and Push calls the compiler inserts, plus the Push
// opportunities it had to reject and why — the Section 4 algorithm made
// visible.
//
//	sdsm-compile -app jacobi -procs 8
//	sdsm-compile -app gauss -level 3
package main

import (
	"flag"
	"fmt"
	"os"

	"sdsm/internal/apps"
	"sdsm/internal/compiler"
	"sdsm/internal/harness"
	"sdsm/internal/obs"
)

func main() {
	var (
		app   = flag.String("app", "jacobi", "application: jacobi, fft, is, shallow, gauss, mgs")
		set   = flag.String("set", "large", "data set: large, small")
		procs = flag.Int("procs", harness.DefaultProcs, "processor count")
		level = flag.Int("level", 4, "optimization level 1-4 (aggregation, +cons-elim, +sync-merge, +push)")
	)
	flag.Parse()

	a, err := apps.ByName(*app)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdsm-compile:", err)
		os.Exit(1)
	}
	prog := a.Build(*procs)
	params := prog.Prepare(a.Sets[apps.DataSet(*set)], *procs)
	levels := compiler.Levels(*procs, params)
	if *level < 1 || *level >= len(levels) {
		fmt.Fprintf(os.Stderr, "sdsm-compile: level must be 1-%d\n", len(levels)-1)
		os.Exit(1)
	}
	_, rep := compiler.Compile(prog, levels[*level])

	fmt.Printf("%s at %d processors, %s set, optimization level %d (%s)\n\n",
		a.Name, *procs, *set, *level, harness.LevelNames[*level])
	fmt.Print(rep.String())
	if len(rep.Validates)+len(rep.WSyncs)+len(rep.Pushes) == 0 {
		fmt.Println("(no run-time calls inserted)")
	}
	// Summary footer in the unified metrics vocabulary (zero counters are
	// omitted, matching the run-time snapshot's convention).
	s := obs.NewSnapshot()
	s.Set("compile.validates", int64(len(rep.Validates)))
	s.Set("compile.wsyncs", int64(len(rep.WSyncs)))
	s.Set("compile.pushes", int64(len(rep.Pushes)))
	s.Set("compile.pushes.rejected", int64(len(rep.Skipped)))
	fmt.Printf("\nsummary:\n%s", obs.FormatSnapshot(s, "  "))
}
