// Integer-sort demonstrates the paper's "partial analysis" story: IS
// cannot be handled by a parallelizing compiler at all (the XHPF stand-in
// rejects it), yet the combined compile-time/run-time system still
// optimizes its lock-protected bucket phases with READ&WRITE_ALL,
// avoiding the diff accumulation that plagues base TreadMarks on
// migratory data.
//
//	go run ./examples/integer-sort
package main

import (
	"fmt"
	"os"

	"sdsm/internal/apps"
	"sdsm/internal/harness"
)

func main() {
	a, _ := apps.ByName("is")
	const procs = 8
	set := apps.Large

	fmt.Println("NAS Integer Sort: bucket counts merged under staggered locks")
	fmt.Println()

	// A data-parallel compiler cannot touch this program.
	if _, err := harness.Run(harness.Config{App: a, Set: set, System: harness.XHPF, Procs: procs}); err != nil {
		fmt.Printf("XHPF stand-in: %v\n\n", err)
	}

	uni := harness.UniTime(a, set)

	type out struct {
		name string
		sys  harness.SystemKind
	}
	for _, o := range []out{{"base TreadMarks", harness.Base}, {"compiler-optimized", harness.Opt}, {"hand-coded (pipelined)", harness.PVMe}} {
		res, err := harness.Run(harness.Config{App: a, Set: set, System: o.sys, Procs: procs, Verify: true})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		want := harness.SeqChecksum(a, set)
		ok := "verified"
		if !apps.Close(res.Checksum, want) {
			ok = "MISMATCH"
		}
		fmt.Printf("%-24s speedup %5.2f  msgs %6d  data %7.2fMB", o.name, harness.Speedup(uni, res.Time), res.Msgs, float64(res.Bytes)/1e6)
		if o.sys != harness.PVMe {
			fmt.Printf("  diffs applied %5d", res.Protocol.DiffsApplied)
		}
		fmt.Printf("  %s\n", ok)
	}
	fmt.Println("\nbase TreadMarks ships every writer's overlapping diff (accumulation);")
	fmt.Println("READ&WRITE_ALL lets the run-time ship each bucket section once.")
}
