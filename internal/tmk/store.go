package tmk

import (
	"math/bits"

	"sdsm/internal/host"
	"sdsm/internal/slab"
	"sdsm/internal/vm"
	"sdsm/internal/wire"
)

// Store is one rank's warm storage: the vm.Arena behind its memory, the
// slabs its protocol log is carved from — cache entries and lists, pending
// lists, interval records, the page table — the per-owner interval logs,
// the recovery record chain, and the node's run-lifetime scratch. A DSM
// run borrows its stores from harness's idle list, so a steady stream of
// runs builds its log in the storage the previous run left behind;
// NewStore makes a cold one. A Store backs one node of one machine at a
// time.
//
// A store lends under the arena's reuse rules (vm.Arena): every carve is
// fully written by its consumer before anything reads it, what the node
// would otherwise initialize itself (the page table, its applied rows) is
// zeroed on loan, and release clears what was carved from every slab
// whose values hold pointers — entries, lists, the interval logs and the
// scratch that holds intervals, frames or diffs — so a released machine's heap arrays
// (Net-decoded diffs, restored records) stay alive through none of it.
// Nothing carved outlives the machine: a Result and a trace hold no carve,
// and a recovery record is plain bytes the store owns — release empties
// the chain, so no later machine restores from it. A store keeps the
// largest run's log, as an arena keeps the largest image.
type Store struct {
	arena   *vm.Arena
	entries slab.Slab[storedDiff]   // cache entries (newEntry)
	lists   slab.Slab[*storedDiff]  // cache lists that outgrew theirs (storeDiff)
	notices slab.Slab[notice]       // each page's first notice, and pending lists that outgrew theirs
	rows    slab.Slab[int32]        // applied rows and cover rows
	refs    slab.Slab[wire.PageRef] // interval page lists
	table   slab.Slab[page]         // the page table
	// The page table's dirty bits again, bit pg%64 of word pg/64, so that
	// closeInterval finds the dirty pages without reading the table
	// (setDirty keeps them in step).
	dirty []uint64
	know  []ivLog // per-owner interval logs, kept with their chunks
	// What the rank's socket reader decodes into on the net backend
	// (DecodeArena). It is kept apart from the slabs above because its
	// writer is the reader's goroutine, not the node's.
	dec wire.Arena
	// The reply the rank's service loop serves into on the net backend
	// (ServeReply), its writer that loop. It is cleared after each encode.
	serveRep wire.DiffReply
	// The node's recovery record chain (writeRecord) when no SnapshotSink
	// takes it: the full record, the incremental records after it back to
	// back (wire frames carry their length), and the spare the next full
	// record — or every record, with a sink — is encoded into.
	recFull, recIncs, recSpare []byte
	scratch
}

// NewStore returns an empty warm store over a new arena.
func NewStore() *Store { return &Store{arena: vm.NewArena()} }

// Arena returns the arena backing the store's node memory.
func (st *Store) Arena() *vm.Arena { return st.arena }

// DecodeArena returns the arena the rank's frames are decoded into on the
// net backend (host.NewNet): the decoded diffs, intervals and page refs
// the node files live there until release rewinds it, after the Net has
// been closed.
func (st *Store) DecodeArena() *wire.Arena { return &st.dec }

// ServeReply returns the reply the rank's requests are served into on the
// net backend (host.NewNet), so a stream of machines regrows none of its
// lists.
func (st *Store) ServeReply() *wire.DiffReply { return &st.serveRep }

// scratch is a node's run-lifetime scratch. Every buffer is rebuilt from
// length zero at its use, so a new machine starts with what the previous
// one grew.
type scratch struct {
	sortScratch []stagedDiff  // applyDiffs' sort buffer
	cdScratch   []*storedDiff // collectDiffs' candidate buffer
	pairScratch []fetchPair   // a fetch round's plan, consumed by request
	reqPages    []int         // request's page list for one exchange

	// A diff exchange's requester-side storage (startFetch): the request
	// and its applied rows, rebuilt for every exchange because StartRequest
	// consumes them, and the free list of Pendings applyReplies returns.
	fetchReq wire.DiffRequest
	reqRows  rowBuf
	pdFree   []*host.Pending

	// The barrier master's Validate_w_sync responder index (wsyncResponder),
	// empty until a request is first resolved: wsLast[pg*N+o] packs the last
	// interval of owner o naming pg (idx<<1 | whole) among
	// know[o][:wsSeen[o]]. wsResp is the result scratch.
	wsLast, wsSeen []int32
	wsResp         []int

	dfScratch []wire.Diff // applyReplies' merged-reply buffer

	// Epoch-lifetime scratch: each slice is rebuilt at one synchronization
	// operation and fully consumed before this node's next one (the
	// consumer runs while this node is blocked or holding the protocol
	// token), so one buffer per node suffices. vcScratch backs syncInfo's
	// presented vector time, ivScratch the barrier arrival's interval
	// delta, depScratch the departure's interval list the master builds
	// for this node and depart the departure itself, grant the lock grant
	// a granter builds for this node into its own lists (both handed by
	// pointer), pgScratch the dirty pages of the interval it closes.
	vcScratch  []int32
	ivScratch  []wire.OwnedInterval
	depScratch []wire.OwnedInterval
	depart     wire.Depart
	grant      wire.Grant
	pgScratch  []int
	// vpScratch holds a Validate's page list (pagesOf) while the call runs,
	// fcScratch, parallel to it, which of those pages it covers whole, and
	// vnScratch the pages it fetches (fetchPages copies what it keeps).
	vpScratch []int
	fcScratch []bool
	vnScratch []int
	// Validate_w_sync's epoch-lifetime storage. wsRegPages and wsRegFull
	// are the slabs the registrations' page lists and full flags are carved
	// from, rewound by consumeWSync; needRows and needList back the needs
	// syncInfo presents, rewound at its next call.
	wsRegPages []int
	wsRegFull  []bool
	needRows   rowBuf
	needList   []wire.WSyncNeed
	// The barrier master's Validate_w_sync resolution (runBarrier), rebuilt
	// at every barrier in node 0's store: the merged page list of one
	// requester, every requester's served diffs back to back, the
	// per-requester lists carved from them, and the broadcast tally.
	wsPages  []wsyncPage
	wsServed []wire.Diff
	wsAll    []remoteWSync
	wsFanout map[diffKey]int

	// A free acquire's grant construction, run at the granter (Acquire).
	hold heldGrant

	// Push's gather storage: the free buffers, and, per receiver, the
	// buffers sent to it that it has not yet applied, oldest first. The
	// receiver hands a buffer back to this free list (pushApplied).
	pushFree []*pushBuf
	pushSent [][]*pushBuf

	// writeRecord's scratch: the frame set, and the record itself, its
	// three lists rebuilt in place.
	recPages []int
	record   wire.Checkpoint
}

// lend returns the page table of a node of an n-rank machine over pages
// shared pages, and its n interval logs, empty. The table, its applied
// rows and its dirty bits are zeroed, and each page's pending list starts
// with room for one notice. Every slice is carved with its capacity capped
// at its own share (s[lo:hi:hi]), so an append past that share moves the
// list (grown) instead of writing into the neighbouring page's — a page's
// second concurrent notice does, and most pages never see one.
func (st *Store) lend(pages, n int) ([]page, []ivLog) {
	tab := st.table.TakeZeroed(pages)
	st.dirty = append(st.dirty[:0], make([]uint64, (pages+63)/64)...)
	rows := st.rows.TakeZeroed(pages * n)
	first := st.notices.Take(pages)
	for pg := range tab {
		tab[pg].applied = rows[pg*n : (pg+1)*n : (pg+1)*n]
		tab[pg].pending = first[pg : pg : pg+1]
	}
	for len(st.know) < n {
		st.know = append(st.know, ivLog{})
	}
	return tab, st.know[:n:n]
}

// release takes nd's storage back: the page of every pooled snapshot still
// in the node's diff cache, shared or not — nothing reads a released
// machine again — then the Mem's twins and the arena's loans, and last the
// store's own slabs and its decode arena, rewound. On net the machine's
// Net is closed by then, so no reader still decodes into the arena.
func (st *Store) release(nd *Node) {
	for pg := range nd.pages {
		for _, d := range nd.pages[pg].diffs {
			if d.pooled {
				nd.Mem.RecyclePage(d.Runs[0].Vals)
			}
		}
	}
	nd.Mem.Release()
	st.arena.Release()
	st.entries.Rewind(true)
	st.lists.Rewind(true)
	st.table.Rewind(true)
	st.notices.Rewind(false)
	st.rows.Rewind(false)
	st.refs.Rewind(false)
	st.dec.Rewind()
	for o := range st.know {
		st.know[o].reset()
	}
	st.sortScratch, st.cdScratch = truncated(st.sortScratch), truncated(st.cdScratch)
	st.dfScratch = truncated(st.dfScratch)
	st.ivScratch, st.depScratch = truncated(st.ivScratch), truncated(st.depScratch)
	st.depart = wire.Depart{}
	st.grant = wire.Grant{Intervals: truncated(st.grant.Intervals), Served: truncated(st.grant.Served)}
	st.wsLast, st.wsSeen = st.wsLast[:0], st.wsSeen[:0]
	st.wsPages, st.wsServed, st.wsAll = truncated(st.wsPages), truncated(st.wsServed), truncated(st.wsAll)
	for to, sent := range st.pushSent { // buffers a receiver never applied
		st.pushFree = append(st.pushFree, sent...)
		st.pushSent[to] = truncated(sent)
	}
	st.record = wire.Checkpoint{Intervals: truncated(st.record.Intervals), Frames: truncated(st.record.Frames), Diffs: truncated(st.record.Diffs)}
	st.recFull, st.recIncs = st.recFull[:0], st.recIncs[:0]
}

// ivLog is what a node knows of one owner's intervals, interval idx at
// at(idx). It is stored in chunks of 1, 2, 4, ... intervals, chunk k
// holding intervals 2^k to 2^(k+1)−1, so a log that grows never copies
// what it holds, and a store keeps the chunks for its next machine.
type ivLog struct {
	chunks [][]wire.Interval
	n      int32 // the intervals held: 1 to n
}

func (l *ivLog) at(idx int32) wire.Interval {
	k := bits.Len32(uint32(idx)) - 1
	return l.chunks[k][idx-1<<k]
}

func (l *ivLog) push(iv wire.Interval) {
	l.n++
	k := bits.Len32(uint32(l.n)) - 1
	if k == len(l.chunks) {
		l.chunks = append(l.chunks, make([]wire.Interval, 1<<k))
	}
	l.chunks[k][l.n-1<<k] = iv
}

// reset empties the log, keeping its chunks, cleared so that none of
// what it held stays reachable through them.
func (l *ivLog) reset() {
	for _, c := range l.chunks {
		clear(c)
	}
	l.n = 0
}

// truncated returns s emptied, its whole capacity cleared first so none of
// what it held stays reachable through it.
func truncated[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}

// grown returns list with room for one more element: list itself while it
// has that room, else a copy in a list of twice its capacity carved from
// s. The outgrown list stays in its slab until the store is rewound.
func grown[T any](s *slab.Slab[T], list []T) []T {
	if len(list) < cap(list) {
		return list
	}
	return append(s.Take(max(2*cap(list), 2))[:0], list...)
}

// newEntry files d's value in the store's entry slab and returns the cache
// entry.
func (nd *Node) newEntry(d storedDiff) *storedDiff {
	e := &nd.st.entries.Take(1)[0]
	*e = d
	return e
}

// coverRow carves an own diff's Covers row from the store.
func (nd *Node) coverRow() []int32 { return nd.st.rows.Take(nd.sys.N()) }
