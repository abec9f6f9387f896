//go:build !race

package interp

import (
	"testing"

	"sdsm/internal/apps"
	"sdsm/internal/compiler"
)

// TestLowerAllocsIndependentOfRanks: a program is lowered once per shape
// and the result shared by every rank, so what lowering allocates must not
// grow with the machine — the per-rank initial environments are rows of one table. jacobi
// at its best options has loop nests, a kernel, Validates and a Push, whose
// sections are evaluated for every rank at run time, not here.
func TestLowerAllocsIndependentOfRanks(t *testing.T) {
	app := apps.Jacobi()
	allocs := func(nprocs int) float64 {
		prog := app.Build(nprocs)
		params := prog.Prepare(app.Sets[apps.Small], nprocs)
		prog, _ = compiler.Compile(prog, app.BestOptions(nprocs, params))
		layout := compiler.BuildLayout(prog, params)
		return testing.AllocsPerRun(20, func() { Lower(prog, layout, params, nprocs) })
	}
	if two, many := allocs(2), allocs(32); two != many {
		t.Fatalf("lowering allocates %.0f objects for 2 ranks and %.0f for 32", two, many)
	}
}
