// Package vm is the software MMU of the simulated DSM node.
//
// A real TreadMarks implementation relies on mprotect and SIGSEGV to detect
// shared accesses; a Go process cannot own either (the Go runtime does), so
// this package substitutes a paged memory with explicit protection bits.
// Application code accesses shared memory through EnsureRead/EnsureWrite
// region calls; a protection mismatch delivers a fault to the DSM protocol
// exactly as a hardware trap would, with the fault, protection-change,
// twinning and diffing costs of the paper's platform charged to virtual
// time. The protocol layer (package tmk) is the fault handler.
//
// A Mem holds the MMU half of a page's state, every piece a dense slice
// indexed by page number: contents (data), protection (prot), the twin
// (twins, nil for a page that has none), the declared write extent
// (extLo/extHi) and the open protection batch's pre-batch protection and
// mark. The consistency half — applied timestamps, notices, diff chain —
// is tmk's page table; a recovery record's wire.PageFrame is the two
// halves of one page side by side. No field is a page-keyed Go map: a
// page's state is found by index, and anything that must visit pages in
// order walks a slice.
package vm

import (
	"fmt"
	"slices"
	"time"

	"sdsm/internal/host"
	"sdsm/internal/model"
	"sdsm/internal/obs"
	"sdsm/internal/shm"
	"sdsm/internal/wire"
)

// Prot is a page protection state.
type Prot uint8

const (
	// NoAccess pages fault on any access (invalid pages).
	NoAccess Prot = iota
	// ReadOnly pages fault on writes (write detection armed).
	ReadOnly
	// ReadWrite pages never fault.
	ReadWrite
)

func (p Prot) String() string {
	switch p {
	case NoAccess:
		return "none"
	case ReadOnly:
		return "ro"
	case ReadWrite:
		return "rw"
	}
	return fmt.Sprintf("prot(%d)", uint8(p))
}

// Access is the kind of memory access that faulted.
type Access uint8

const (
	// Read access.
	Read Access = iota
	// Write access.
	Write
)

// FaultHandler receives protection faults. The handler must leave the page
// with sufficient protection for the faulting access, or the access panics.
type FaultHandler interface {
	Fault(p host.Proc, page int, acc Access)
}

// Run is a contiguous span of modified words within a page, the unit a
// diff is made of. It is the wire value itself: what DiffAgainstTwin
// produces is what a diff reply carries and what ApplyRuns consumes, with
// no conversion on the way.
type Run = wire.Run

// RunsBytes returns the wire size of a set of runs: one word of header per
// run plus the data words.
func RunsBytes(runs []Run) int {
	n := 0
	for _, r := range runs {
		n += shm.WordBytes * (1 + len(r.Vals))
	}
	return n
}

// RunsWords returns the number of data words covered by runs.
func RunsWords(runs []Run) int {
	n := 0
	for _, r := range runs {
		n += len(r.Vals)
	}
	return n
}

// Counters tallies MMU events for one node; the paper's "segv" column in
// Table 2 is ReadFaults+WriteFaults. The obs tag is the counter's name in
// the metrics snapshot (obs.Snapshot.SetFields).
type Counters struct {
	ReadFaults  int64 `obs:"vm.faults.read"`
	WriteFaults int64 `obs:"vm.faults.write"`
	ProtOps     int64 `obs:"vm.prot.ops"`
	Twins       int64 `obs:"vm.twins"`
	Diffs       int64 `obs:"vm.diffs"`
	DiffWords   int64 `obs:"vm.diff.words"`
}

// Mem is one node's view of the shared address space. Its image and its
// page buffers are always on loan from an Arena.
type Mem struct {
	Node  int
	costs model.Costs

	data    []float64
	prot    []Prot
	twins   [][]float64 // twins[page]: the page's twin image; nil = no twin
	handler FaultHandler

	// extLo/extHi accumulate, per page, the union of the write regions
	// the application has established since the extent was last consumed
	// (TakeWriteExtent). They are bookkeeping only — no virtual-time cost —
	// and feed the write-extent field of write notices, which the adaptive
	// protocol's sub-page split detection reads. extHi[pg] == 0 means no
	// write region touched the page.
	extLo, extHi []int16

	// The open protection batch: batched lists the pages SetProt changed
	// since the outermost BeginProtBatch, each once, in first-change order;
	// inBatch[page] marks a listed page and preBatch[page] is its protection
	// before the batch. Empty whenever batchDepth is 0.
	batchDepth int
	batched    []int
	inBatch    []bool
	preBatch   []Prot

	// arena is the storage this Mem borrowed (NewWarm). Its idle page
	// buffers are the one freelist for twins and for the whole-page
	// snapshots the protocol prunes unserved or holds when its machine is
	// released (RecyclePage), so a steady-state epoch's twin/diff cycle
	// allocates no page storage, and neither does the next run's. The Mem
	// is driven under the node's protocol exclusion, so the arena needs no
	// synchronization.
	arena *Arena

	// Counters is exported for the statistics harness.
	Counters Counters

	// Trace, when non-nil, receives twin/diff events (EvTwin, EvDiff). Set
	// by the protocol layer's EnableTrace; nil means tracing is off and the
	// MMU's behavior (charges, counters, allocations) is byte-identical.
	Trace *obs.NodeTracer
}

// New creates a node memory of the given size with all pages NoAccess,
// over a private cold arena.
func New(node int, words int, costs model.Costs, handler FaultHandler) *Mem {
	return NewWarm(node, words, costs, handler, NewArena())
}

// NewWarm creates a node memory backed by an arena's storage, warm or
// cold. The data store comes zeroed from the arena (observably identical
// to make), so a warm run's memory contents are bit-identical to a fresh
// run's.
func NewWarm(node int, words int, costs model.Costs, handler FaultHandler, arena *Arena) *Mem {
	pages := (words + shm.PageWords - 1) / shm.PageWords
	return &Mem{
		Node:     node,
		costs:    costs,
		data:     arena.TakeData(pages * shm.PageWords),
		prot:     make([]Prot, pages),
		twins:    make([][]float64, pages),
		extLo:    make([]int16, pages),
		extHi:    make([]int16, pages),
		inBatch:  make([]bool, pages),
		preBatch: make([]Prot, pages),
		handler:  handler,
		arena:    arena,
	}
}

// Arena returns the arena backing this Mem.
func (m *Mem) Arena() *Arena { return m.arena }

// Release hands the Mem's live twins back to its arena's page freelist
// and drops its reference to the data store; the arena's owner then ends
// the loan (Arena.ReleaseData). The Mem must not be used afterwards.
func (m *Mem) Release() {
	for pg := range m.twins {
		m.DropTwin(pg)
	}
	m.data = nil
}

// Pages returns the number of pages in the address space.
func (m *Mem) Pages() int { return len(m.prot) }

// Data exposes the node's memory image. Callers must have established
// access rights with EnsureRead/EnsureWrite first.
func (m *Mem) Data() []float64 { return m.data }

// PageData returns the words of one page.
func (m *Mem) PageData(page int) []float64 {
	return m.data[page*shm.PageWords : (page+1)*shm.PageWords]
}

// Prot returns the protection of page.
func (m *Mem) Prot(page int) Prot { return m.prot[page] }

// SetProt changes the protection of page, charging the platform's
// protection-operation cost and counting it. Setting the same protection
// is free (no system call would be issued). Inside a protection batch
// (BeginProtBatch/FlushProtBatch) the bit changes immediately but the cost
// is coalesced per contiguous same-protection run, the way the augmented
// run-time's section primitives (Write_enable(Section) and friends,
// Figure 4 of the paper) issue one mprotect per address range.
func (m *Mem) SetProt(p host.Proc, page int, prot Prot) {
	if m.prot[page] == prot {
		return
	}
	if m.batchDepth > 0 {
		if !m.inBatch[page] {
			m.inBatch[page], m.preBatch[page] = true, m.prot[page]
			m.batched = append(m.batched, page)
		}
		m.prot[page] = prot
		return
	}
	m.prot[page] = prot
	m.Counters.ProtOps++
	p.Charge(m.costs.ProtOp(m.Pages()))
}

// BeginProtBatch opens a (reentrant) protection batch.
func (m *Mem) BeginProtBatch() { m.batchDepth++ }

// FlushProtBatch closes the batch, charging one protection operation per
// contiguous run of pages with the same final protection.
func (m *Mem) FlushProtBatch(p host.Proc) {
	m.batchDepth--
	if m.batchDepth > 0 {
		return
	}
	pages := m.batched[:0]
	for _, pg := range m.batched {
		m.inBatch[pg] = false
		if m.prot[pg] != m.preBatch[pg] { // changed-back pages need no syscall
			pages = append(pages, pg)
		}
	}
	m.batched = pages[:0]
	if len(pages) == 0 {
		return
	}
	// The list is in first-change order; runs are found in page order.
	slices.Sort(pages)
	runs := 0
	for i, pg := range pages {
		if i == 0 || pg != pages[i-1]+1 || m.prot[pg] != m.prot[pages[i-1]] {
			runs++
		}
	}
	m.Counters.ProtOps += int64(runs)
	p.Charge(time.Duration(runs) * m.costs.ProtOp(m.Pages()))
}

// SetProtInit changes protection without cost, for pre-run initialization.
func (m *Mem) SetProtInit(page int, prot Prot) { m.prot[page] = prot }

// WipeForRestore resets the arena to its initial state — all pages
// zeroed and NoAccess, twins recycled, write extents cleared — without
// cost or counting, for checkpoint restore. Any protection changes
// batched but not yet flushed are discarded: the restore supersedes
// them, and no syscalls were issued for them.
func (m *Mem) WipeForRestore() {
	clear(m.data)
	for pg := range m.prot {
		m.prot[pg] = NoAccess
	}
	for pg := range m.twins {
		m.DropTwin(pg)
	}
	clear(m.extLo)
	clear(m.extHi)
	for _, pg := range m.batched {
		m.inBatch[pg] = false
	}
	m.batched = m.batched[:0]
}

// RestorePage installs a checkpointed page image: contents, protection,
// and — when twin is non-nil — an armed write-detection twin with the
// given image (the checkpointed twin, not a copy of the contents: the
// difference between the two is exactly the undiffed writes the next
// twin comparison must still find). Cost-free and counter-free, like
// SetProtInit: a restore is recovery work, not protocol work.
func (m *Mem) RestorePage(page int, vals []float64, prot Prot, twin []float64) {
	dst := m.PageData(page)
	copy(dst, vals)
	m.prot[page] = prot
	m.DropTwin(page)
	if twin != nil {
		tw := m.arena.TakePage()
		copy(tw, twin)
		m.twins[page] = tw
	}
}

// TwinData returns the twin image of page, or nil if the page has none.
// The slice aliases live twin storage: callers must copy what they keep.
func (m *Mem) TwinData(page int) []float64 { return m.twins[page] }

// EnsureRead establishes read access to every page overlapping r,
// delivering faults to the handler as needed. Ensure calls are run-time
// entry points: they bracket a protocol section for the fault path, so
// application code may call them directly on any host backend.
func (m *Mem) EnsureRead(p host.Proc, r shm.Region) {
	p.Begin()
	defer p.End()
	p0, p1 := r.Pages()
	for pg := p0; pg < p1; pg++ {
		if m.prot[pg] == NoAccess {
			m.fault(p, pg, Read)
		}
	}
}

// EnsureWrite establishes write access to every page overlapping r. The
// per-page overlap of r is folded into the page's write extent (see
// TakeWriteExtent): the declared write region is the software MMU's view
// of which words the application may store to, the same information a
// hardware MMU cannot give below page granularity.
func (m *Mem) EnsureWrite(p host.Proc, r shm.Region) {
	p.Begin()
	defer p.End()
	p0, p1 := r.Pages()
	for pg := p0; pg < p1; pg++ {
		lo, hi := 0, shm.PageWords
		if w := pg * shm.PageWords; r.Lo > w {
			lo = r.Lo - w
		}
		if w := (pg + 1) * shm.PageWords; r.Hi < w {
			hi = r.Hi - pg*shm.PageWords
		}
		if m.extHi[pg] == 0 {
			m.extLo[pg], m.extHi[pg] = int16(lo), int16(hi)
		} else {
			if int16(lo) < m.extLo[pg] {
				m.extLo[pg] = int16(lo)
			}
			if int16(hi) > m.extHi[pg] {
				m.extHi[pg] = int16(hi)
			}
		}
		if m.prot[pg] != ReadWrite {
			m.fault(p, pg, Write)
		}
	}
}

// PeekWriteExtent returns the page's accumulated write extent without
// clearing it, for interval records created mid-epoch (a serve-path
// interval split): the epoch's closing interval consumes the extent, and
// both records carry the same conservative union.
func (m *Mem) PeekWriteExtent(page int) (lo, hi int, ok bool) {
	if m.extHi[page] == 0 {
		return 0, 0, false
	}
	return int(m.extLo[page]), int(m.extHi[page]), true
}

// TakeWriteExtent returns and clears the page's accumulated write extent:
// the [lo, hi) word range within the page covered by the write regions
// established since the previous call. ok is false when no write region
// touched the page (a page can be dirty with no fresh extent — it stayed
// write-enabled across an interval with no new EnsureWrite — in which
// case callers must assume the whole page).
func (m *Mem) TakeWriteExtent(page int) (lo, hi int, ok bool) {
	if m.extHi[page] == 0 {
		return 0, 0, false
	}
	lo, hi = int(m.extLo[page]), int(m.extHi[page])
	m.extLo[page], m.extHi[page] = 0, 0
	return lo, hi, true
}

func (m *Mem) fault(p host.Proc, page int, acc Access) {
	if acc == Read {
		m.Counters.ReadFaults++
	} else {
		m.Counters.WriteFaults++
	}
	p.Charge(m.costs.PageFault)
	m.handler.Fault(p, page, acc)
	if acc == Read && m.prot[page] == NoAccess || acc == Write && m.prot[page] != ReadWrite {
		panic(fmt.Sprintf("vm: handler left page %d at %v after %d fault", page, m.prot[page], acc))
	}
}

// HasTwin reports whether page currently has a twin.
func (m *Mem) HasTwin(page int) bool { return m.twins[page] != nil }

// RecyclePage returns a page-sized value buffer (a consumed twin, a
// whole-page snapshot pruned from a diff chain that was never handed
// out, or any snapshot of a released machine) to the arena's page
// freelist, where the next TakePage finds and overwrites it: nobody may
// read the buffer afterwards. Buffers of any other size — diff run values
// are exact-size — are left to the garbage collector.
func (m *Mem) RecyclePage(vals []float64) {
	if cap(vals) != shm.PageWords {
		return
	}
	m.arena.pages = append(m.arena.pages, vals[:shm.PageWords])
}

// MakeTwin snapshots page for later diffing, charging the copy cost.
func (m *Mem) MakeTwin(p host.Proc, page int) {
	if m.twins[page] != nil {
		panic(fmt.Sprintf("vm: page %d already has a twin", page))
	}
	tw := m.arena.TakePage()
	copy(tw, m.PageData(page))
	m.twins[page] = tw
	m.Counters.Twins++
	p.Charge(time.Duration(shm.PageWords) * m.costs.TwinPerWord)
	if m.Trace != nil {
		m.Trace.Emit(obs.Event{
			Kind: obs.EvTwin, VT: int64(p.Now()), WT: m.Trace.WallNow(),
			Page: int32(page),
		})
	}
}

// DropTwin discards the twin of page, if any, recycling its storage.
func (m *Mem) DropTwin(page int) {
	if tw := m.twins[page]; tw != nil {
		m.twins[page] = nil
		m.RecyclePage(tw)
	}
}

// DiffAgainstTwin compares page to its twin and returns the modified word
// runs, charging the scan cost. The twin is consumed.
func (m *Mem) DiffAgainstTwin(p host.Proc, page int) []Run {
	tw := m.twins[page]
	if tw == nil {
		panic(fmt.Sprintf("vm: page %d has no twin to diff against", page))
	}
	m.twins[page] = nil
	cur := m.PageData(page)
	var runs []Run
	i := 0
	for i < shm.PageWords {
		if cur[i] == tw[i] {
			i++
			continue
		}
		j := i
		for j < shm.PageWords && cur[j] != tw[j] {
			j++
		}
		runs = append(runs, Run{Off: int32(i), Vals: append([]float64(nil), cur[i:j]...)})
		i = j
	}
	m.Counters.Diffs++
	m.Counters.DiffWords += int64(RunsWords(runs))
	p.Charge(time.Duration(shm.PageWords) * m.costs.DiffScanPerWord)
	m.RecyclePage(tw)
	if m.Trace != nil {
		m.Trace.Emit(obs.Event{
			Kind: obs.EvDiff, VT: int64(p.Now()), WT: m.Trace.WallNow(),
			Page: int32(page), A: int32(RunsWords(runs)),
		})
	}
	return runs
}

// WholePageRuns returns the full contents of page as a single run, used
// when modifications must be shipped but no twin exists (WRITE_ALL pages).
// It is a memcpy, not a compare, so it costs the twin rate per word. The
// run's values are freelist storage. The protocol re-takes the snapshot
// into the same buffer (CopyPage) while nobody was handed it, and hands
// the buffer back via RecyclePage when the snapshot is pruned unserved or
// its machine is released; a served snapshot pruned mid-run may still be
// aliased by a receiver, and is left to the garbage collector.
func (m *Mem) WholePageRuns(p host.Proc, page int) []Run {
	vals := m.arena.TakePage()
	m.CopyPage(p, page, vals)
	return []Run{{Off: 0, Vals: vals}}
}

// CopyPage copies the full contents of page into vals, a page-sized
// buffer, charging the twin rate per word: a whole-page snapshot re-taken
// in storage its caller already holds.
func (m *Mem) CopyPage(p host.Proc, page int, vals []float64) {
	copy(vals, m.PageData(page))
	p.Charge(time.Duration(shm.PageWords) * m.costs.TwinPerWord)
}

// ApplyRuns merges received modification runs into page, charging the
// apply cost.
func (m *Mem) ApplyRuns(p host.Proc, page int, runs []Run) {
	dst := m.PageData(page)
	words := 0
	for _, r := range runs {
		copy(dst[r.Off:], r.Vals)
		words += len(r.Vals)
	}
	// Applying must not corrupt an armed twin: if the page has a twin, the
	// twin receives the same data so local modifications remain detectable.
	if tw := m.twins[page]; tw != nil {
		for _, r := range runs {
			copy(tw[r.Off:], r.Vals)
		}
	}
	p.Charge(time.Duration(words) * m.costs.ApplyPerWord)
}
