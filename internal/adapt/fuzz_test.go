package adapt

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSnapshotDecode feeds arbitrary bytes to RestoreSnapshot, which every
// recovery record's adapt state passes through. Restoring must return a
// detector or an error, never panic; a detector that restores must snapshot
// to a blob that restores again to the same snapshot (restoring
// canonicalizes: pages ascend, sets are re-sorted, varints are minimal).
// The seed corpus under testdata/fuzz is sampleSnapshots (regenerate with
// -write-corpus after a snapshot format change).
func FuzzSnapshotDecode(f *testing.F) {
	for _, b := range sampleSnapshots(f) {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := New(Config{K: 2})
		if err := d.RestoreSnapshot(data); err != nil {
			return
		}
		blob := d.Snapshot()
		r := New(Config{K: 2})
		if err := r.RestoreSnapshot(blob); err != nil {
			t.Fatalf("a restored detector's snapshot does not restore: %v", err)
		}
		if again := r.Snapshot(); !bytes.Equal(again, blob) {
			t.Fatalf("snapshot/restore not canonical:\n first %x\nsecond %x", blob, again)
		}
	})
}

// sampleSnapshots is a fresh detector's snapshot and the snapshot after each
// epoch of TestSnapshotRoundTrip's stream.
func sampleSnapshots(tb testing.TB) [][]byte {
	d := New(Config{K: 2})
	out := [][]byte{d.Snapshot()}
	for _, e := range roundTripEpochs() {
		advance(tb, d, e)
		out = append(out, d.Snapshot())
	}
	return out
}

var writeCorpus = flag.Bool("write-corpus", false, "regenerate the checked-in fuzz seed corpus")

// TestWriteSnapshotCorpus regenerates testdata/fuzz/FuzzSnapshotDecode from
// sampleSnapshots when run with -write-corpus.
func TestWriteSnapshotCorpus(t *testing.T) {
	if !*writeCorpus {
		t.Skip("pass -write-corpus to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	old, _ := filepath.Glob(filepath.Join(dir, "seed-*"))
	for _, f := range old {
		os.Remove(f)
	}
	for i, b := range sampleSnapshots(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
