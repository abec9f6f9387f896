//go:build !race

package adapt

import (
	"runtime"
	"testing"
)

// TestRestoreSnapshotPageTableBytes pins what a snapshot naming the largest
// page a snapshot may name costs to restore: a page table of about 10 MiB.
// A bound of 1 << 24 let a five-byte edit of any snapshot cost 2.7 GB. It
// is excluded under the race detector, whose runtime inflates TotalAlloc
// (20 MiB here).
func TestRestoreSnapshotPageTableBytes(t *testing.T) {
	blob := farSnapshot(maxSnapshotPage)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := New(Config{K: 2}).RestoreSnapshot(blob); err != nil {
		t.Fatalf("a snapshot naming page %d: %v", maxSnapshotPage, err)
	}
	runtime.ReadMemStats(&m1)
	if b := m1.TotalAlloc - m0.TotalAlloc; b > 12<<20 {
		t.Fatalf("restoring a snapshot naming page %d allocated %d MiB", maxSnapshotPage, b>>20)
	}
}
