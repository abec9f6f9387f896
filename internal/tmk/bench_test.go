package tmk

import (
	"testing"

	"sdsm/internal/shm"
	"sdsm/internal/vm"
	"sdsm/internal/wire"
)

// benchDiff builds a realistic twin-based diff: runs words modified words
// spread over the page in short runs, as the accumulate phases produce.
func benchDiff(creator int, to int32, words int) *storedDiff {
	d := &storedDiff{Diff: wire.Diff{
		Page: 1, Creator: int32(creator),
		From: to - 1, To: to,
		Covers: []int32{to, 3, 7, 1, 0, 2, 4, 9},
	}}
	runLen := 4
	for off := 0; off < shm.PageWords && vm.RunsWords(d.Runs) < words; off += 2 * runLen {
		vals := make([]float64, runLen)
		for i := range vals {
			vals[i] = float64(off + i)
		}
		d.Runs = append(d.Runs, wire.Run{Off: int32(off), Vals: vals})
	}
	return d
}

// BenchmarkDiffApply measures merging received wire diffs into a node's
// page image (sort, helps filter, run application, cache insert).
func BenchmarkDiffApply(b *testing.B) {
	s := testSystem(8, 4*shm.PageWords)
	nd := s.Nodes[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			// Bound the cache and coverage growth the bench itself causes.
			b.StopTimer()
			nd.diffs = map[int][]*storedDiff{}
			nd.applied[1] = make([]int32, 8)
			b.StartTimer()
		}
		to := int32(i%1024 + 1)
		reply := []wire.Diff{
			benchDiff(1, to, 128).Diff,
			benchDiff(2, to, 64).Diff,
		}
		nd.applyDiffs(reply)
	}
}

// BenchmarkServeDiffs measures answering a diff request against a warm
// cache (the hot path of every fault on the receiving side).
func BenchmarkServeDiffs(b *testing.B) {
	s := testSystem(8, 4*shm.PageWords)
	nd := s.Nodes[0]
	for to := int32(1); to <= 16; to++ {
		nd.storeDiff(benchDiff(0, to, 64))
	}
	applied := [][]int32{make([]int32, 8)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, bytes := nd.serveDiffs(3, []int{1}, applied, false)
		if len(out) == 0 || bytes == 0 {
			b.Fatal("nothing served")
		}
	}
}
