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
// blob cannot size the page table: a restore grows it to the largest page
// named, at 160 bytes a page, about 10 MiB at this bound — 256 MiB of
// shared memory, 51 times the largest data set here (shallow/large, 1 280
// pages).
const maxSnapshotPage = 1 << 16

// snapCoder walks the snapshot blob in one direction: Snapshot appends
// varints to b, RestoreSnapshot (restore true) consumes them into the same
// fields. The detector's state and a page's pattern each have one walker
// below, so the blob's field order is written once. A failed read drops
// the rest of the input, which makes every later read fail too.
type snapCoder struct {
	b       []byte
	restore bool
	err     error
}

func num[T ~int | ~int64 | ~uint8](c *snapCoder, x *T) {
	if !c.restore {
		c.b = binary.AppendVarint(c.b, int64(*x))
	} else if v, n := binary.Varint(c.b); n > 0 {
		c.b, *x = c.b[n:], T(v)
	} else {
		c.truncated()
	}
}

func (c *snapCoder) truncated() { c.b, c.err = nil, fmt.Errorf("adapt: truncated snapshot") }

func (c *snapCoder) ints(xs *[]int) {
	n := len(*xs)
	num(c, &n)
	if c.restore {
		*xs = nil
		if n < 0 || n > len(c.b) {
			// Every element takes at least a byte: a larger count is
			// corrupt and must not size the slice.
			c.truncated()
		} else if n > 0 {
			*xs = make([]int, n)
		}
	}
	for i := range *xs {
		num(c, &(*xs)[i])
	}
}

func (c *snapCoder) pattern(p *pattern) {
	num(c, &p.producer)
	c.ints(&p.consumers)
	c.ints(&p.cur)
	num(c, &p.streak)
	num(c, &p.mode)
	c.ints(&p.bound)
	num(c, &p.pairLo)
	num(c, &p.pairHi)
	num(c, &p.cut)
	c.ints(&p.pairCons)
	num(c, &p.pairStreak)
	if c.restore {
		// Snapshot writes the set sorted; a blob that did not must still
		// restore to one, as it did when cur was a map.
		slices.Sort(p.cur)
		p.cur = slices.Compact(p.cur)
	}
}

// state walks the detector's full mutable state: transition stats, then
// every observed page's number and pattern in ascending page order.
func (c *snapCoder) state(d *Detector) {
	num(c, &d.Stats.Promotions)
	num(c, &d.Stats.Splits)
	num(c, &d.Stats.SectionJoins)
	num(c, &d.Stats.Decays)
	seen := 0
	for pg := range d.pages {
		if d.pages[pg].seen {
			seen++
		}
	}
	num(c, &seen)
	for pg := 0; seen > 0 && c.err == nil; seen, pg = seen-1, pg+1 {
		for !c.restore && !d.pages[pg].seen {
			pg++ // writing names the next observed page; restoring reads it
		}
		num(c, &pg)
		if c.restore && (pg < 0 || pg > maxSnapshotPage) {
			c.err = fmt.Errorf("adapt: snapshot names page %d", pg)
			return
		}
		d.grow(pg)
		c.pattern(d.page(pg))
	}
}

// Snapshot serializes the detector's full mutable state — per-page
// patterns and transition stats — as a deterministic byte blob: pages
// and sets are emitted in sorted order, so two replicas with equal
// Fingerprints produce identical blobs. The Config is not serialized;
// a restored replica is constructed with the same Config by the same
// harness configuration that built the original.
func (d *Detector) Snapshot() []byte {
	c := snapCoder{b: []byte{snapshotVersion}}
	c.state(d)
	return c.b
}

// RestoreSnapshot replaces the detector's mutable state with the state
// a Snapshot captured, keeping the Config it was constructed with.
func (d *Detector) RestoreSnapshot(b []byte) error {
	if len(b) == 0 || b[0] != snapshotVersion {
		return fmt.Errorf("adapt: bad snapshot version")
	}
	c := snapCoder{b: b[1:], restore: true}
	d.Stats, d.pages = Stats{}, nil
	c.state(d)
	return c.err
}
