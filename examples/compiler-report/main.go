// Compiler-report prints the Section 4 analysis for every evaluation
// program: the run-time calls inserted at each optimization level and the
// Push opportunities rejected, showing where each application sits in the
// paper's applicability matrix (Shallow's call boundaries, Gauss/MGS's
// owner conditionals, IS's locks).
//
//	go run ./examples/compiler-report
package main

import (
	"fmt"

	"sdsm/internal/apps"
	"sdsm/internal/compiler"
	"sdsm/internal/harness"
)

func main() {
	const procs = 8
	for _, a := range apps.Registry() {
		fmt.Printf("==== %s ====\n", a.Name)
		prog := a.Build(procs)
		params := prog.Prepare(a.Sets[apps.Large], procs)
		levels := compiler.Levels(procs, params)
		for li := 1; li < len(levels); li++ {
			_, rep := compiler.Compile(prog, levels[li])
			fmt.Printf("-- level %d (%s): %d validates, %d merged, %d pushes\n",
				li, harness.LevelNames[li], len(rep.Validates), len(rep.WSyncs), len(rep.Pushes))
			if li == len(levels)-1 {
				fmt.Print(rep.String())
			}
		}
		fmt.Println()
	}
}
