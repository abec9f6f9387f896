package rsd

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sdsm/internal/shm"
)

// The walk Concrete.Regions made before sections were intersected and
// expanded by an appending walk, kept as the oracle for AppendRegions,
// Intersect and ContiguousIn: recurse from the outermost dimension, append
// one region per dense column or per strided element, normalize at the end.
func oracleRegions(c Concrete, l *shm.Layout) []shm.Region {
	if c.Empty() {
		return nil
	}
	arr := l.Array(c.Array)
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

// words expands regions into the set of words they cover.
func words(rs []shm.Region) map[int]bool {
	out := map[int]bool{}
	for _, r := range rs {
		for w := r.Lo; w < r.Hi; w++ {
			out[w] = true
		}
	}
	return out
}

// sectionGen draws concrete sections of two arrays of one random shape
// (1 to 3 dimensions, extents 1 to 12) that stay within the array: dense
// and strided bounds with strides 1 to 8, whole extents, single indices and
// empty bounds.
type sectionGen struct {
	rnd    *rand.Rand
	layout *shm.Layout
	dims   []int
}

func newSectionGen(seed int64) *sectionGen {
	g := &sectionGen{rnd: rand.New(rand.NewSource(seed)), layout: shm.NewLayout()}
	g.dims = make([]int, 1+g.rnd.Intn(3))
	for d := range g.dims {
		g.dims[d] = 1 + g.rnd.Intn(12)
	}
	g.layout.Alloc("a", g.dims...)
	g.layout.Alloc("b", g.dims...)
	return g
}

func (g *sectionGen) section() Concrete {
	c := Concrete{Array: "a", Dims: make([]CBound, len(g.dims))}
	if g.rnd.Intn(8) == 0 {
		c.Array = "b"
	}
	for d, ext := range g.dims {
		b := CBound{Lo: 1 + g.rnd.Intn(ext), Stride: 1}
		if g.rnd.Intn(2) == 0 {
			b.Stride = 1 + g.rnd.Intn(8)
		}
		switch g.rnd.Intn(6) {
		case 0:
			b.Lo, b.Hi = 1, ext // the whole extent, dense or strided
		case 1:
			b.Hi = b.Lo // a single index
		case 2:
			b.Hi = b.Lo - 1 - g.rnd.Intn(2) // empty
		default:
			b.Hi = b.Lo + g.rnd.Intn(ext-b.Lo+1)
		}
		c.Dims[d] = b
	}
	return c
}

// TestIntersectMatchesWordSets: the words of a ∩ b are the words a's
// expansion and b's expansion share, for sections of the same array and of
// different arrays. Every intersection is written into the storage of the
// one before, as a caller reusing its scratch does.
func TestIntersectMatchesWordSets(t *testing.T) {
	var into []CBound
	for seed := int64(0); seed < 300; seed++ {
		g := newSectionGen(seed)
		for k := 0; k < 20; k++ {
			a, b := g.section(), g.section()
			x := a.Intersect(b, into)
			into = x.Dims
			got := words(oracleRegions(x, g.layout))
			wa, wb := words(oracleRegions(a, g.layout)), words(oracleRegions(b, g.layout))
			for w := range wa {
				if wb[w] != got[w] {
					t.Fatalf("seed %d: %v ∩ %v = %v: word %d of a, in b %v, in the intersection %v", seed, a, b, x, w, wb[w], got[w])
				}
			}
			for w := range got {
				if !wa[w] {
					t.Fatalf("seed %d: %v ∩ %v = %v holds word %d, not in %v", seed, a, b, x, w, a)
				}
			}
			if x.Empty() != (len(got) == 0) {
				t.Fatalf("seed %d: %v ∩ %v = %v, Empty %v over %d words", seed, a, b, x, x.Empty(), len(got))
			}
		}
	}
}

// TestAppendRegionsMatchesOracle: the appending walk gives the normalized
// regions the recursive walk did, and leaves what dst already held.
func TestAppendRegionsMatchesOracle(t *testing.T) {
	head := []shm.Region{{Lo: -8, Hi: -4}}
	for seed := int64(0); seed < 300; seed++ {
		g := newSectionGen(seed)
		for k := 0; k < 20; k++ {
			c := g.section()
			arr := g.layout.Array(c.Array)
			want := oracleRegions(c, g.layout)
			if got := c.AppendRegions(nil, arr); !slices.Equal(got, want) {
				t.Fatalf("seed %d: %v gives %v, oracle %v", seed, c, got, want)
			}
			if got := c.AppendRegions(slices.Clone(head), arr); !slices.Equal(got, append(slices.Clone(head), want...)) {
				t.Fatalf("seed %d: %v appended to %v gives %v", seed, c, head, got)
			}
		}
	}
}

// TestContiguousInMatchesOracle: the arithmetic rule agrees with "expands
// to exactly one region".
func TestContiguousInMatchesOracle(t *testing.T) {
	contiguous := 0
	for seed := int64(0); seed < 300; seed++ {
		g := newSectionGen(seed)
		for k := 0; k < 20; k++ {
			c := g.section()
			want := len(oracleRegions(c, g.layout)) == 1
			if got := c.ContiguousIn(g.layout.Array(c.Array)); got != want {
				t.Fatalf("seed %d: %v in %v: ContiguousIn %v, oracle %v", seed, c, g.dims, got, want)
			}
			if want {
				contiguous++
			}
		}
	}
	if contiguous == 0 {
		t.Fatal("no generated section was contiguous")
	}
}

// TestNonPositiveStridePanics: a stride below 1 is not a progression, and
// every operation says so rather than guess at one.
func TestNonPositiveStridePanics(t *testing.T) {
	arr := shm.NewLayout().Alloc("a", 8, 8)
	good := CBound{Lo: 1, Hi: 8, Stride: 1}
	for _, stride := range []int{0, -1, -3} {
		bad := Concrete{Array: "a", Dims: []CBound{good, {Lo: 2, Hi: 6, Stride: stride}}}
		ok := Concrete{Array: "a", Dims: []CBound{good, good}}
		for name, f := range map[string]func(){
			"Count":         func() { bad.Dims[1].Count() },
			"Intersect":     func() { ok.Intersect(bad, nil) },
			"AppendRegions": func() { bad.AppendRegions(nil, arr) },
			"ContiguousIn":  func() { bad.ContiguousIn(arr) },
		} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				f()
				return
			}()
			if !strings.Contains(msg, fmt.Sprintf("stride %d", stride)) {
				t.Errorf("%s with stride %d: panic %q, want one naming the stride", name, stride, msg)
			}
		}
	}
}
