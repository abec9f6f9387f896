package interp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sdsm/internal/apps"
	"sdsm/internal/compiler"
	"sdsm/internal/ir"
	"sdsm/internal/rsd"
)

// Broadcast fill against gather: staged fills an operand that stands still
// by doubling one word into place, where the executor gathered it word by
// word before. gather is that staging, every operand word by word, kept as
// the oracle: each program below runs once with each, and the two runs must
// make the same kernel calls, on operands and into destinations of the same
// bits, and leave the same image bits.

func gather(s, data []float64, m mov) {
	for t := range s {
		s[t] = data[m.addr+m.step*t]
	}
}

// logged returns stmts with every assignment's kernel wrapped to append to
// log a hash of the call: its destination's length, the bits of every
// operand word as the kernel is handed them, and the bits the destination
// holds after it.
func logged(stmts []ir.Stmt, log *[]uint64) []ir.Stmt {
	out := make([]ir.Stmt, len(stmts))
	for i, st := range stmts {
		switch st := st.(type) {
		case ir.Assign:
			fn := st.Fn
			st.Fn = func(dst []float64, src [][]float64) {
				h := mix(14695981039346656037, uint64(len(dst)))
				for _, s := range src {
					for _, v := range s {
						h = mix(h, math.Float64bits(v))
					}
				}
				fn(dst, src)
				for _, v := range dst {
					h = mix(h, math.Float64bits(v))
				}
				*log = append(*log, h)
			}
			out[i] = st
		case ir.Loop:
			st.Body = logged(st.Body, log)
			out[i] = st
		case ir.If:
			st.Then, st.Else = logged(st.Then, log), logged(st.Else, log)
			out[i] = st
		default:
			out[i] = st
		}
	}
	return out
}

func mix(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

// sameStaging runs prog on sim at nprocs ranks with broadcasts filled and
// with every operand gathered, and fails where the call logs or the images
// differ. It returns the operands the fill staged by doubling.
func sameStaging(t *testing.T, prog *ir.Program, params rsd.Env, nprocs int) (fills int) {
	t.Helper()
	fill := staged
	defer func() { staged = fill }()
	run := func(stage func(s, data []float64, m mov)) ([]uint64, []float64) {
		var log []uint64
		p := *prog
		p.Body = logged(prog.Body, &log)
		staged = stage
		return log, runSim(t, RunDSM, &p, params, nprocs).image
	}
	gotLog, got := run(func(s, data []float64, m mov) {
		if m.step == 0 {
			fills++
		}
		fill(s, data, m)
	})
	wantLog, want := run(gather)
	if i := slices.Compare(gotLog, wantLog); len(gotLog) != len(wantLog) || i != 0 {
		n := 0
		for n < min(len(gotLog), len(wantLog)) && gotLog[n] == wantLog[n] {
			n++
		}
		t.Errorf("%d kernel calls filled, %d gathered; the logs part at call %d", len(gotLog), len(wantLog), n)
	}
	if len(got) != len(want) {
		t.Fatalf("image of %d words filled, %d gathered", len(got), len(want))
	}
	for w := range want {
		if math.Float64bits(got[w]) != math.Float64bits(want[w]) {
			t.Fatalf("word %d: filled %v, gathered %v", w, got[w], want[w])
		}
	}
	return fills
}

// TestFillMatchesGather holds the fill to the gather over every
// application's assignments, unmodified and compiled at each of the four
// levels, at 3 and 8 ranks (short mode: 3), and over generated programs,
// the dependence shapes among them, at every level.
func TestFillMatchesGather(t *testing.T) {
	ranks := []int{3, 8}
	seeds := 40
	if testing.Short() {
		ranks, seeds = []int{3}, 10
	}
	fills := map[string]int{}
	for _, app := range apps.All() {
		for _, n := range ranks {
			prog := app.Build(n)
			params := prog.Prepare(app.Sets[apps.Small], n)
			for l, level := range compiler.Levels(n, params) {
				t.Run(fmt.Sprintf("%s/%d/level%d", app.Name, n, l), func(t *testing.T) {
					p := prog
					if l > 0 {
						p, _ = compiler.Compile(prog, level)
					}
					fills[app.Name] += sameStaging(t, p, params, n)
				})
			}
		}
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprint("generated/seed", seed), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(int64(seed)))
			nprocs := 2 + rnd.Intn(3)
			g := &generator{rnd: rnd, nprocs: nprocs, shapes: map[string]int{}}
			prog, params := g.program()
			if seed%4 == 0 {
				prog, params = g.dependenceProgram()
			}
			for l, level := range compiler.Levels(nprocs, params) {
				p := prog
				if l > 0 {
					p, _ = compiler.Compile(prog, level)
				}
				fills["generated"] += sameStaging(t, p, params, nprocs)
			}
		})
	}
	// gauss's pivot row and pivot are the broadcasts the fill is for.
	if fills["gauss"] == 0 || fills["generated"] == 0 {
		t.Fatalf("operands filled by doubling: %v; gauss and the generator must stage some", fills)
	}
	t.Logf("operands filled by doubling: %v", fills)
}
