package adapt

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// snapshotVersion guards the detector snapshot blob format. The blob
// rides inside wire.Checkpoint.Adapt, so it carries its own version:
// the wire codec treats it as opaque bytes.
const snapshotVersion = 1

// maxSnapshotPage bounds the page numbers a snapshot may name, so a corrupt
// blob cannot size the page table.
const maxSnapshotPage = 1 << 24

// Snapshot serializes the detector's full mutable state — per-page
// patterns and transition stats — as a deterministic byte blob: pages
// and sets are emitted in sorted order, so two replicas with equal
// Fingerprints produce identical blobs. The Config is not serialized;
// a restored replica is constructed with the same Config by the same
// harness configuration that built the original.
func (d *Detector) Snapshot() []byte {
	b := []byte{snapshotVersion}
	v := func(x int64) { b = binary.AppendVarint(b, x) }
	ints := func(xs []int) {
		v(int64(len(xs)))
		for _, x := range xs {
			v(int64(x))
		}
	}
	v(d.Stats.Promotions)
	v(d.Stats.Splits)
	v(d.Stats.SectionJoins)
	v(d.Stats.Decays)
	seen := 0
	for pg := range d.pages {
		if d.pages[pg].seen {
			seen++
		}
	}
	v(int64(seen))
	for pg := range d.pages {
		p := &d.pages[pg]
		if !p.seen {
			continue
		}
		v(int64(pg))
		v(int64(p.producer))
		ints(p.consumers)
		ints(p.cur)
		v(int64(p.streak))
		v(int64(p.mode))
		ints(p.bound)
		v(int64(p.pairLo))
		v(int64(p.pairHi))
		v(int64(p.cut))
		ints(p.pairCons)
		v(int64(p.pairStreak))
	}
	return b
}

// RestoreSnapshot replaces the detector's mutable state with the state
// a Snapshot captured, keeping the Config it was constructed with.
func (d *Detector) RestoreSnapshot(b []byte) error {
	if len(b) == 0 || b[0] != snapshotVersion {
		return fmt.Errorf("adapt: bad snapshot version")
	}
	b = b[1:]
	var err error
	v := func() int64 {
		x, n := binary.Varint(b)
		if n <= 0 {
			if err == nil {
				err = fmt.Errorf("adapt: truncated snapshot")
			}
			return 0
		}
		b = b[n:]
		return x
	}
	ints := func() []int {
		n := v()
		if n == 0 || err != nil {
			return nil
		}
		out := make([]int, 0, n)
		for i := int64(0); i < n && err == nil; i++ {
			out = append(out, int(v()))
		}
		return out
	}
	d.Stats = Stats{Promotions: v(), Splits: v(), SectionJoins: v(), Decays: v()}
	d.pages = nil
	npages := v()
	for i := int64(0); i < npages && err == nil; i++ {
		pg := int(v())
		if err != nil {
			break
		}
		if pg < 0 || pg > maxSnapshotPage {
			return fmt.Errorf("adapt: snapshot names page %d", pg)
		}
		d.grow(pg)
		p := d.page(pg)
		p.producer, p.consumers, p.cur = int(v()), ints(), ints()
		// Snapshot writes the set sorted; a blob that did not must still
		// restore to one, as it did when cur was a map.
		slices.Sort(p.cur)
		p.cur = slices.Compact(p.cur)
		p.streak = int(v())
		p.mode = Mode(v())
		p.bound = ints()
		p.pairLo = int(v())
		p.pairHi = int(v())
		p.cut = int(v())
		p.pairCons = ints()
		p.pairStreak = int(v())
	}
	return err
}
