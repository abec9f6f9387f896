// Quickstart: build a tiny shared-memory program by hand, run it on the
// simulated DSM cluster, and watch the augmented run-time interface at
// work.
//
// Four processors share eight pages. Each writes its own two pages, a
// barrier propagates write notices, and everyone then reads everything —
// first the base TreadMarks way (one page fault and one diff fetch per
// page), then with a Validate that fetches all of a writer's pages in a
// single exchange.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"sdsm/internal/host"
	"sdsm/internal/model"
	"sdsm/internal/shm"
	"sdsm/internal/sim"
	"sdsm/internal/tmk"
)

func main() {
	const n = 4
	run := func(useValidate bool) {
		e := sim.NewEngine(n)
		nw := host.NewNetwork(e, model.SP2())
		layout := shm.NewLayout()
		arr := layout.Alloc("counters", 8*shm.PageWords)
		sys := tmk.New(e, nw, layout)

		err := sys.Run(func(nd *tmk.Node) {
			mine := shm.Region{Lo: nd.ID * 2 * shm.PageWords, Hi: (nd.ID + 1) * 2 * shm.PageWords}

			// Phase 1: every processor writes its own quarter of the page.
			nd.Mem.EnsureWrite(nd.Proc(), mine)
			data := nd.Mem.Data()
			for w := mine.Lo; w < mine.Hi; w++ {
				data[w] = float64(nd.ID + 1)
			}

			// Lazy release consistency: the modifications become visible to
			// the others at the barrier (as write notices; data moves only
			// on demand).
			nd.Barrier(1)

			// Phase 2: read the whole page.
			if useValidate {
				// The compiler-inserted call: fetch all outstanding diffs
				// in one exchange per writer.
				nd.Validate(tmk.AccRead, []shm.Region{arr.Whole()}, false)
			}
			nd.Mem.EnsureRead(nd.Proc(), arr.Whole())
			sum := 0.0
			for w := 0; w < 8*shm.PageWords; w++ {
				sum += nd.Mem.Data()[w]
			}
			if nd.ID == 0 {
				fmt.Printf("  sum on processor 0: %v (want %v)\n",
					sum, float64(2*shm.PageWords*(1+2+3+4)))
			}
			nd.Barrier(2)
		})
		if err != nil {
			panic(err)
		}

		vc, _ := sys.Stats()
		st := nw.Stats()
		mode := "base TreadMarks (fault-driven)"
		if useValidate {
			mode = "with Validate (aggregated)  "
		}
		fmt.Printf("%s: %3d messages, %4d bytes payload, %d page faults, time %v\n",
			mode, st.Msgs, st.Bytes, vc.ReadFaults+vc.WriteFaults, sys.MaxTime())
	}

	fmt.Println("quickstart: 4 processors, 8 shared pages, all-to-all reads")
	run(false)
	run(true)
	fmt.Println("\nthe Validate version fetches the same data in fewer exchanges —")
	fmt.Println("communication aggregation, the paper's most effective optimization.")
}
