package adapt

import "testing"

// TestSnapshotRoundTrip drives a detector through promotion, split, and
// decay transitions, snapshots it mid-stream, restores the blob into a
// fresh detector, and requires the fingerprints to match — then feeds
// both detectors one more epoch to check the restored replica keeps
// advancing identically.
func TestSnapshotRoundTrip(t *testing.T) {
	ep := func(d *Detector, writers map[int][]WriteExt, readers map[int][]int) {
		advance(t, d, Epoch{Writers: writers, Readers: readers})
	}
	d := New(Config{K: 2})
	for i := 0; i < 3; i++ {
		ep(d, map[int][]WriteExt{4: {{Node: 0, Lo: 0, Hi: 512}}}, map[int][]int{4: {1, 2}})
		ep(d, map[int][]WriteExt{7: {{Node: 1, Lo: 0, Hi: 256}, {Node: 2, Lo: 256, Hi: 512}}},
			map[int][]int{7: {0}})
	}
	ep(d, map[int][]WriteExt{4: {{Node: 3, Lo: 0, Hi: 512}}}, nil) // decay page 4

	blob := d.Snapshot()
	r := New(Config{K: 2})
	if err := r.RestoreSnapshot(blob); err != nil {
		t.Fatal(err)
	}
	if d.Fingerprint() != r.Fingerprint() {
		t.Fatalf("restored fingerprint differs:\n%s\nvs\n%s", r.Fingerprint(), d.Fingerprint())
	}
	for _, det := range []*Detector{d, r} {
		ep(det, map[int][]WriteExt{4: {{Node: 3, Lo: 0, Hi: 512}}}, map[int][]int{4: {1}, 7: {0}})
	}
	if d.Fingerprint() != r.Fingerprint() {
		t.Fatal("restored detector diverged on the next epoch")
	}
	if err := r.RestoreSnapshot([]byte{99}); err == nil {
		t.Fatal("bad version accepted")
	}
	if err := r.RestoreSnapshot(blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// TestRestoreSnapshotTotal pins that restoring is total over damaged
// blobs: every proper prefix is rejected, and no single flipped byte —
// a set count of 2^62 included, which used to size a slice — panics.
func TestRestoreSnapshotTotal(t *testing.T) {
	d := New(Config{K: 2})
	for i := 0; i < 3; i++ {
		advance(t, d, Epoch{
			Writers: map[int][]WriteExt{4: {{Node: 0, Lo: 0, Hi: 512}}, 90: {{Node: 1, Lo: 0, Hi: 256}, {Node: 2, Lo: 256, Hi: 512}}},
			Readers: map[int][]int{4: {1, 2}, 90: {0}},
		})
	}
	blob := d.Snapshot()
	for cut := range blob {
		if err := New(Config{K: 2}).RestoreSnapshot(blob[:cut]); err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte snapshot was accepted", cut, len(blob))
		}
	}
	for i := 1; i < len(blob); i++ {
		for _, flip := range []byte{0x7f, 0x80, 0xff} {
			bad := append([]byte(nil), blob...)
			bad[i] ^= flip
			New(Config{K: 2}).RestoreSnapshot(bad)
		}
	}
}
