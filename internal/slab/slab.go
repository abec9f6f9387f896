// Package slab is the resettable carve storage every warm structure of a
// run is built in: a vm.Arena's diff runs and page tables, a tmk.Store's
// protocol log, and the decode arena (wire.Arena) a rank's socket reader
// decodes its frames into. It sits below both vm and wire, so the three
// share one implementation.
package slab

// slabMin and slabMax bound a slab block's size in elements: a slab's first
// block holds slabMin, or the carve that starts it if that is larger, and
// each next one twice its predecessor up to slabMax.
const slabMin, slabMax = 64, 8192

// Slab is resettable storage carved n elements at a time, for what lives
// as long as its machine. A block is never resized: when the current one
// cannot hold a carve the next is started, so nothing carved ever moves,
// and every carve is capped at its own n elements (s[lo:hi:hi]), so an
// append past it reallocates instead of writing into a neighbour's carve.
// Rewind makes every block free for the next machine's carves: a slab
// keeps the blocks of the largest run it served, as a vm.Arena keeps the
// largest image. A Slab's zero value is empty and ready.
type Slab[T any] struct {
	blocks [][]T
	cur    int // the block carves come from
	used   int // elements of blocks[cur] carved since the last rewind
}

// Take carves the next n elements. They are NOT zeroed: after a rewind
// they hold what the previous machine left there, so the caller must
// write every element before reading it (see vm.Arena's reuse rules).
func (s *Slab[T]) Take(n int) []T {
	if n == 0 {
		return nil
	}
	if len(s.blocks) == 0 || s.used+n > len(s.blocks[s.cur]) {
		s.next(n)
	}
	c := s.blocks[s.cur][s.used : s.used+n : s.used+n]
	s.used += n
	return c
}

// TakeZeroed carves the next n elements, zeroed: for tables a borrower
// would otherwise make.
func (s *Slab[T]) TakeZeroed(n int) []T {
	c := s.Take(n)
	clear(c)
	return c
}

// next starts the block after the current one, making it if none is left
// or the one left cannot hold n elements.
func (s *Slab[T]) next(n int) {
	if len(s.blocks) > 0 {
		s.cur++
	}
	s.used = 0
	if s.cur < len(s.blocks) && len(s.blocks[s.cur]) >= n {
		return
	}
	size := slabMin
	if k := len(s.blocks); k > 0 {
		size = min(2*len(s.blocks[k-1]), slabMax)
	}
	blk := make([]T, max(size, n))
	if s.cur < len(s.blocks) {
		s.blocks[s.cur] = blk
	} else {
		s.blocks = append(s.blocks, blk)
	}
}

// Rewind makes every block free for new carves, keeping them. With
// clearUsed, what was carved since the last rewind is zeroed first: a slab
// whose values hold pointers must not keep what they point at alive.
func (s *Slab[T]) Rewind(clearUsed bool) {
	if clearUsed {
		for i := 0; i < s.cur; i++ {
			clear(s.blocks[i])
		}
		if s.cur < len(s.blocks) {
			clear(s.blocks[s.cur][:s.used])
		}
	}
	s.cur, s.used = 0, 0
}
