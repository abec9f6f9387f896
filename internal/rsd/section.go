package rsd

import (
	"fmt"
	"strings"

	"sdsm/internal/shm"
)

// Tag records how a section is accessed within a region of code
// (Section 4.1 of the paper).
type Tag uint8

// Tag bits.
const (
	Read Tag = 1 << iota
	Write
	// WriteFirst marks sections whose every read is preceded by a write in
	// the same region; {Write, WriteFirst} sections qualify for WRITE_ALL.
	WriteFirst
)

func (t Tag) Has(bit Tag) bool { return t&bit != 0 }

func (t Tag) String() string {
	var parts []string
	if t.Has(Read) {
		parts = append(parts, "read")
	}
	if t.Has(Write) {
		parts = append(parts, "write")
	}
	if t.Has(WriteFirst) {
		parts = append(parts, "write-first")
	}
	if len(parts) == 0 {
		return "{}"
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Bound describes one dimension of a section: lo..hi with a constant
// stride (1 = dense).
type Bound struct {
	Lo, Hi Lin
	Stride int
}

// Dense returns a stride-1 bound.
func Dense(lo, hi Lin) Bound { return Bound{Lo: lo, Hi: hi, Stride: 1} }

func (b Bound) String() string {
	if b.Stride == 1 {
		return fmt.Sprintf("%v:%v", b.Lo, b.Hi)
	}
	return fmt.Sprintf("%v:%v:%d", b.Lo, b.Hi, b.Stride)
}

// Section is a regular section descriptor over a named array.
type Section struct {
	Array string
	Dims  []Bound
}

func (s Section) String() string {
	var ds []string
	for _, d := range s.Dims {
		ds = append(ds, d.String())
	}
	return fmt.Sprintf("%s[%s]", s.Array, strings.Join(ds, ", "))
}

// Equal reports whether two sections are symbolically identical.
func (s Section) Equal(o Section) bool {
	if s.Array != o.Array || len(s.Dims) != len(o.Dims) {
		return false
	}
	for i := range s.Dims {
		if s.Dims[i].Stride != o.Dims[i].Stride ||
			!s.Dims[i].Lo.Equal(o.Dims[i].Lo) || !s.Dims[i].Hi.Equal(o.Dims[i].Hi) {
			return false
		}
	}
	return true
}

// Union returns the dimension-wise bounding box of s and o, which is how
// regular section analysis merges accesses. The second result is false
// when the union cannot be represented (different arrays or strides, or
// bounds whose order cannot be decided symbolically).
func (s Section) Union(o Section) (Section, bool) {
	if s.Array != o.Array || len(s.Dims) != len(o.Dims) {
		return Section{}, false
	}
	out := Section{Array: s.Array, Dims: make([]Bound, len(s.Dims))}
	for i := range s.Dims {
		a, b := s.Dims[i], o.Dims[i]
		if a.Stride != b.Stride {
			return Section{}, false
		}
		lo, ok := symMin(a.Lo, b.Lo)
		if !ok {
			return Section{}, false
		}
		hi, ok := symMax(a.Hi, b.Hi)
		if !ok {
			return Section{}, false
		}
		out.Dims[i] = Bound{Lo: lo, Hi: hi, Stride: a.Stride}
	}
	return out, true
}

// symMin returns the symbolically smaller of a and b when their difference
// is a known constant.
func symMin(a, b Lin) (Lin, bool) {
	d, ok := a.DiffConst(b)
	if !ok {
		return Lin{}, false
	}
	if d <= 0 {
		return a, true
	}
	return b, true
}

func symMax(a, b Lin) (Lin, bool) {
	d, ok := a.DiffConst(b)
	if !ok {
		return Lin{}, false
	}
	if d >= 0 {
		return a, true
	}
	return b, true
}

// Eval resolves the section against env.
func (s Section) Eval(env Env) Concrete {
	out := Concrete{Array: s.Array, Dims: make([]CBound, len(s.Dims))}
	for i, d := range s.Dims {
		out.Dims[i] = CBound{Lo: d.Lo.Eval(env), Hi: d.Hi.Eval(env), Stride: d.Stride}
	}
	return out
}

// CBound is a concrete dimension bound.
type CBound struct {
	Lo, Hi, Stride int
}

// Count returns the number of index values in the bound.
func (b CBound) Count() int {
	if b.Hi < b.Lo {
		return 0
	}
	return (b.Hi-b.Lo)/b.Stride + 1
}

// Concrete is a section with all bounds resolved to integers.
type Concrete struct {
	Array string
	Dims  []CBound
}

// Empty reports whether the section selects no elements.
func (c Concrete) Empty() bool {
	for _, d := range c.Dims {
		if d.Count() == 0 {
			return true
		}
	}
	return len(c.Dims) == 0
}

// Elems returns the number of elements selected.
func (c Concrete) Elems() int {
	if len(c.Dims) == 0 {
		return 0
	}
	n := 1
	for _, d := range c.Dims {
		n *= d.Count()
	}
	return n
}

// Regions converts the section to word-address regions under the layout.
// Column-major: dimension 0 is contiguous when its stride is 1; outer
// dimensions are enumerated. Adjacent or overlapping regions are merged.
func (c Concrete) Regions(l *shm.Layout) []shm.Region {
	if c.Empty() {
		return nil
	}
	arr := l.Array(c.Array)
	if len(c.Dims) != len(arr.Dims) {
		panic(fmt.Sprintf("rsd: section %s has %d dims, array has %d", c.Array, len(c.Dims), len(arr.Dims)))
	}
	var out []shm.Region
	var walk func(dim int, base int)
	walk = func(dim int, base int) {
		d := c.Dims[dim]
		stride := arr.Stride(dim)
		if dim == 0 {
			if d.Stride == 1 {
				out = append(out, shm.Region{Lo: base + (d.Lo - 1), Hi: base + d.Hi})
				return
			}
			for i := d.Lo; i <= d.Hi; i += d.Stride {
				out = append(out, shm.Region{Lo: base + (i - 1), Hi: base + i})
			}
			return
		}
		for i := d.Lo; i <= d.Hi; i += d.Stride {
			walk(dim-1, base+(i-1)*stride)
		}
	}
	walk(len(c.Dims)-1, arr.Base)
	return shm.Normalize(out)
}

// ContiguousIn reports whether the section maps to a single contiguous
// address range under the layout, the condition the transformation rules
// check before WRITE_ALL conversions (Section 4.2).
func (c Concrete) ContiguousIn(l *shm.Layout) bool {
	return len(c.Regions(l)) == 1
}
