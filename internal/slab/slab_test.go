package slab

import "testing"

// TestSlabCarves pins the slab contract: every carve is capped at its own
// length, a carve never moves when later ones start new blocks, a rewound
// slab hands the same storage out again in the same order without
// allocating, a rewind zeroes what was carved only when asked to and
// TakeZeroed always does, and a carve larger than any block gets a block
// of its own.
func TestSlabCarves(t *testing.T) {
	var s Slab[*int]
	one := new(int)
	var first []*int
	var addrs []**int
	for i := 0; i < 3*slabMax; i += 5 {
		c := s.Take(5)
		if len(c) != 5 || cap(c) != 5 {
			t.Fatalf("carve %d: len %d cap %d, want 5 and 5", i/5, len(c), cap(c))
		}
		c[0] = one
		if first == nil {
			first = c
		}
		addrs = append(addrs, &c[0])
	}
	if &first[0] != addrs[0] || first[0] != one {
		t.Fatal("the first carve moved or lost its value as the slab grew")
	}
	s.Rewind(true)
	if allocs := testing.AllocsPerRun(1, func() {
		for i, a := range addrs {
			if c := s.Take(5); &c[0] != a {
				t.Fatalf("carve %d after a rewind is not the storage it had", i)
			}
		}
		s.Rewind(false)
	}); allocs != 0 {
		t.Fatalf("carving a rewound slab allocated %v times", allocs)
	}
	for i, a := range addrs {
		if *a != nil {
			t.Fatalf("carve %d still points at its value after a clearing rewind", i)
		}
	}
	big := s.Take(2 * slabMax)
	if len(big) != 2*slabMax || cap(big) != 2*slabMax {
		t.Fatalf("an oversized carve has len %d cap %d, want %d", len(big), cap(big), 2*slabMax)
	}
	var v Slab[float64]
	v.Take(3)[1] = 7
	v.Rewind(false)
	if v.Take(3)[1] != 7 {
		t.Fatal("a rewind without clearUsed zeroed a plain slab")
	}
	v.Rewind(false)
	if v.TakeZeroed(3)[1] != 0 {
		t.Fatal("TakeZeroed handed out a word the previous carve left")
	}
}
