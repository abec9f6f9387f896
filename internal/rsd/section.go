package rsd

import (
	"fmt"
	"slices"
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

// Count returns the number of index values in the bound. A stride below 1
// describes no progression and panics.
func (b CBound) Count() int {
	if b.Stride < 1 {
		panic(fmt.Sprintf("rsd: bound %d:%d has stride %d", b.Lo, b.Hi, b.Stride))
	}
	if b.Hi < b.Lo {
		return 0
	}
	return (b.Hi-b.Lo)/b.Stride + 1
}

// intersect returns the index values b and o share: the arithmetic
// progression from the first of them with the lcm of the two strides,
// empty when there is none.
func (b CBound) intersect(o CBound) CBound {
	none := CBound{Lo: 1, Hi: 0, Stride: 1}
	if b.Count() == 0 || o.Count() == 0 {
		return none
	}
	step := b.Stride
	for step%o.Stride != 0 {
		step += b.Stride
	}
	// From b's first value at or above both starts, a value o shares, if
	// there is one, is among the step/b.Stride values of b that follow.
	x := b.Lo + (max(b.Lo, o.Lo)-b.Lo+b.Stride-1)/b.Stride*b.Stride
	for n := step / b.Stride; (x-o.Lo)%o.Stride != 0; n-- {
		if n == 1 {
			return none
		}
		x += b.Stride
	}
	return CBound{Lo: x, Hi: min(b.Hi, o.Hi), Stride: step}
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

// Intersect returns the elements c and o both select. Per dimension that is
// the intersection of two arithmetic progressions, itself one with the lcm
// of the strides, so the result is exact. Sections of different arrays
// share nothing. Whether anything is shared is the result's Empty. The
// result's bounds are appended to into[:0], so a caller that intersects
// again and again passes the last result's Dims; nil makes them afresh.
func (c Concrete) Intersect(o Concrete, into []CBound) Concrete {
	if c.Array != o.Array || len(c.Dims) != len(o.Dims) {
		return Concrete{Dims: into[:0]}
	}
	out := Concrete{Array: c.Array, Dims: into[:0]}
	for d := range c.Dims {
		out.Dims = append(out.Dims, c.Dims[d].intersect(o.Dims[d]))
	}
	return out
}

// AppendRegions appends the section's words in arr, c's array, to dst as
// word-address regions and returns the extended slice. Column-major:
// dimension 0 is contiguous when its stride is 1, the outer dimensions are
// enumerated, and the walk ascends, merging each region into the previous
// one it abuts — so what it appends is already normalized. dst grows at
// most once, to room for one region per column (per element when
// dimension 0 strides).
func (c Concrete) AppendRegions(dst []shm.Region, arr *shm.Array) []shm.Region {
	if c.Empty() {
		return dst
	}
	if len(c.Dims) != len(arr.Dims) {
		panic(fmt.Sprintf("rsd: section %s has %d dims, array has %d", c.Array, len(c.Dims), len(arr.Dims)))
	}
	n := c.Elems()
	if c.Dims[0].Stride == 1 {
		n /= c.Dims[0].Count()
	}
	return c.appendDim(slices.Grow(dst, n), arr, len(c.Dims)-1, arr.Base)
}

// appendDim appends the regions of dimension dim and those below it for
// the outer indices that put dim's element 1 at word base.
func (c Concrete) appendDim(dst []shm.Region, arr *shm.Array, dim, base int) []shm.Region {
	d := c.Dims[dim]
	if dim > 0 {
		for i := d.Lo; i <= d.Hi; i += d.Stride {
			dst = c.appendDim(dst, arr, dim-1, base+(i-1)*arr.Stride(dim))
		}
		return dst
	}
	if d.Stride == 1 {
		return appendMerged(dst, shm.Region{Lo: base + d.Lo - 1, Hi: base + d.Hi})
	}
	for i := d.Lo; i <= d.Hi; i += d.Stride {
		dst = appendMerged(dst, shm.Region{Lo: base + i - 1, Hi: base + i})
	}
	return dst
}

// appendMerged appends r to dst, or extends dst's last region by it when r
// starts within or right after that region.
func appendMerged(dst []shm.Region, r shm.Region) []shm.Region {
	if n := len(dst); n > 0 && r.Lo >= dst[n-1].Lo && r.Lo <= dst[n-1].Hi {
		dst[n-1].Hi = max(dst[n-1].Hi, r.Hi)
		return dst
	}
	return append(dst, r)
}

// ContiguousIn reports whether the section maps to a single contiguous
// address range of arr, its array, the condition the transformation rules
// check before WRITE_ALL conversions (Section 4.2). Column-major, that is
// so when the dimensions below some k select their whole extent, dimension
// k is dense or a single index, and every dimension above k a single
// index. The bounds must lie within the array.
func (c Concrete) ContiguousIn(arr *shm.Array) bool {
	if c.Empty() {
		return false
	}
	k := 0
	for k < len(c.Dims) && c.Dims[k].Count() == arr.Dims[k] {
		k++
	}
	for d := k; d < len(c.Dims); d++ {
		if c.Dims[d].Count() != 1 && (d > k || c.Dims[d].Stride != 1) {
			return false
		}
	}
	return true
}
