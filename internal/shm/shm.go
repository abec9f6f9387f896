// Package shm defines the shared address space layout used by the DSM:
// word-addressed memory (one word = one float64 = 8 bytes), 4 KB pages,
// and column-major (Fortran) arrays allocated page-aligned, mirroring the
// paper's shared_common block. Regions are half-open word ranges and are
// the currency in which sections, validates, pushes and protocol traffic
// are expressed.
package shm

import (
	"cmp"
	"fmt"
	"slices"
)

const (
	// PageWords is the number of 8-byte words per page (4 KB pages).
	PageWords = 512
	// WordBytes is the size of one word in bytes.
	WordBytes = 8
)

// Region is a half-open range [Lo, Hi) of word addresses.
type Region struct {
	Lo, Hi int
}

// Words returns the number of words in r.
func (r Region) Words() int {
	if r.Hi <= r.Lo {
		return 0
	}
	return r.Hi - r.Lo
}

// Empty reports whether r contains no words.
func (r Region) Empty() bool { return r.Hi <= r.Lo }

// Pages returns the page index range [p0, p1) overlapped by r.
func (r Region) Pages() (p0, p1 int) {
	if r.Empty() {
		return 0, 0
	}
	return r.Lo / PageWords, (r.Hi + PageWords - 1) / PageWords
}

// Normalize sorts regions, drops empties, and merges overlapping or
// adjacent ranges, into one new slice: rs is not written. Input that is
// already ascending — one section's regions — is not sorted again.
func Normalize(rs []Region) []Region {
	var out []Region
	for _, r := range rs {
		if r.Empty() {
			continue
		}
		if out == nil {
			out = make([]Region, 0, len(rs))
		}
		out = append(out, r)
	}
	byLo := func(a, b Region) int { return cmp.Compare(a.Lo, b.Lo) }
	if !slices.IsSortedFunc(out, byLo) {
		slices.SortFunc(out, byLo)
	}
	merged := out[:0]
	for _, r := range out {
		if n := len(merged); n > 0 && r.Lo <= merged[n-1].Hi {
			merged[n-1].Hi = max(merged[n-1].Hi, r.Hi)
			continue
		}
		merged = append(merged, r)
	}
	return merged
}

// Array is a column-major array in the shared address space. Indices are
// 1-based, following the Fortran programs in the paper.
type Array struct {
	Name string
	Base int   // word address of element (1,1,...)
	Dims []int // extent per dimension

	strides []int // Stride(d) for each dimension, fixed at Alloc
}

// Words returns the total number of words in the array.
func (a *Array) Words() int {
	n := 1
	for _, d := range a.Dims {
		n *= d
	}
	return n
}

// Stride returns the distance in words between consecutive elements along
// dimension d (column-major: dimension 0 is contiguous).
func (a *Array) Stride(d int) int { return a.strides[d] }

// Index returns the word address of the element with the given 1-based
// indices.
func (a *Array) Index(idx ...int) int {
	if len(idx) != len(a.Dims) {
		panic(fmt.Sprintf("shm: array %s has %d dims, got %d indices", a.Name, len(a.Dims), len(idx)))
	}
	addr := a.Base
	for d, i := range idx {
		if i < 1 || i > a.Dims[d] {
			panic(fmt.Sprintf("shm: index %d out of range [1,%d] in dim %d of %s", i, a.Dims[d], d, a.Name))
		}
		addr += (i - 1) * a.strides[d]
	}
	return addr
}

// Whole returns the region covering the entire array.
func (a *Array) Whole() Region { return Region{a.Base, a.Base + a.Words()} }

// Layout allocates arrays in a single shared address space.
type Layout struct {
	arrays map[string]*Array
	words  int
}

// NewLayout returns an empty layout.
func NewLayout() *Layout { return &Layout{arrays: map[string]*Array{}} }

// Alloc adds a page-aligned array with the given dimensions.
func (l *Layout) Alloc(name string, dims ...int) *Array {
	if _, dup := l.arrays[name]; dup {
		panic("shm: duplicate array " + name)
	}
	a := &Array{Name: name, Base: l.words, Dims: append([]int(nil), dims...), strides: make([]int, len(dims))}
	stride := 1
	for d, n := range dims {
		a.strides[d] = stride
		stride *= n
	}
	l.arrays[name] = a
	w := a.Words()
	w = (w + PageWords - 1) / PageWords * PageWords
	l.words += w
	return a
}

// Array looks up an array by name, panicking if absent.
func (l *Layout) Array(name string) *Array {
	a, ok := l.arrays[name]
	if !ok {
		panic("shm: unknown array " + name)
	}
	return a
}

// Words returns the total size of the address space in words.
func (l *Layout) Words() int { return l.words }
