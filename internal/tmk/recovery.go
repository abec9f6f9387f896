package tmk

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"sdsm/internal/vm"
	"sdsm/internal/wire"
)

// Checkpoint/restore (DESIGN.md §10).
//
// With recovery enabled, every node writes a recovery record at each
// barrier arrival — after the epoch's interval is closed, before the
// arrival message is built, so the record is durable before any state
// derived from it can reach a peer (pessimistic logging: log before
// send). A record is the node's wire.Checkpoint: vector clock, last
// departure time, the interval log learned since the previous record
// (own and foreign, per-owner dense, so a restored log is gap-free),
// page frames — content, twin, protection, applied row — for every
// page whose image or bookkeeping moved, the cached diff chains of the
// framed pages, and the adaptive detector's snapshot. Records are
// encoded wire frames (kind FCkpt) handed to a pluggable SnapshotSink
// — in-memory, local disk, or a socket streaming to the mpnet
// coordinator — so a restore exercises the same codec a remote restore
// would.
//
// A restore rebuilds the node's entire DSM state from the newest full
// record plus the incremental records after it. Page content, twin,
// applied timestamps, protections, dirty flag, and diff chain come
// from the newest frame per page; pending write notices are recomputed
// from the restored interval log against the restored applied rows.
// The twin and the diff cache are checkpointed verbatim rather than
// resynthesized from the restored content because both encode word-
// granular history the content alone cannot recover: the twin's delta
// to the content is the undiffed writes the next comparison must still
// find, and the cache's per-creator diffs carry exactly the words each
// writer owns — a whole-page stand-in would overwrite words belonging
// to concurrent writers of a falsely-shared page. Application state
// (locals, loop counters) is not checkpointed: the simulated fault
// hits the DSM layer at a barrier, the one point where app and
// protocol state are already synchronized; full-process crash recovery
// is the mpnet coordinator's job (message-log replay, see
// internal/mpnet).

// SnapshotSink stores recovery records. Put receives one encoded record
// (a complete FCkpt wire frame); a full record makes every older record
// of that node dead, and sinks may discard them — after the new record is
// stored, so a failed Put leaves the previous chain intact. Put must not
// retain rec after it returns: the node encodes its next record into the
// same buffer. Records returns a node's live chain — the newest full
// record first, then every incremental record after it, in write order —
// as blobs the caller owns and may hold across any later Put.
type SnapshotSink interface {
	Put(node int, epoch int32, full bool, rec []byte) error
	Records(node int) ([][]byte, error)
}

// Fault is an injected failure: rank Rank dies at its Epoch-th barrier
// arrival (1-based), immediately after its recovery record is written.
type Fault struct {
	Rank  int
	Epoch int
}

// RecoveryConfig arms checkpointing. Every is the full-record period in
// barriers (≤1: every record is full; k: one full record every k-th).
// Fault, if set, injects one failure and the in-place recovery that
// follows it.
type RecoveryConfig struct {
	Sink  SnapshotSink
	Every int
	Fault *Fault
}

// Recoverer is implemented by transports that can drop and re-establish
// one node's links around a restore (host.Net with recovery enabled).
// In-process transports need neither.
type Recoverer interface {
	Detach(node int) error
	Reattach(node int) error
}

// RecoveryStats counts a node's checkpoint/restore activity. They live
// outside ProtocolStats: recovery is off in every table run, and the
// reported tables must not change shape when it is on.
type RecoveryStats struct {
	Checkpoints     int64 `obs:"recovery.checkpoints"`
	FullCheckpoints int64 `obs:"recovery.full"`
	CheckpointBytes int64 `obs:"recovery.bytes"`
	Failures        int64 `obs:"recovery.failures"`
	Restores        int64 `obs:"recovery.restores"`
}

// recoveryState is a node's checkpoint bookkeeping: recLast is the vector
// clock of its previous record (nil before the first), recEpoch the record
// counter; which pages moved since that record is the page table's touched
// bit. The rest is writeRecord's scratch, reused from record to record: the
// frame set, the checkpoint's three lists, and the encoded frame (a record
// is dead to the node once the sink's Put returns).
type recoveryState struct {
	recLast  []int32
	recEpoch int32

	recPages  []int
	recIvs    []wire.OwnedInterval
	recFrames []wire.PageFrame
	recDiffs  []wire.Diff
	recBuf    []byte
}

// recoveryPoll is the virtual time a failed node burns per check while
// draining its peers into the barrier before restoring.
const recoveryPoll = time.Microsecond

// EnableRecovery arms barrier-point checkpointing (and, if cfg.Fault is
// set, one injected failure). Must be called after New and before Run.
// With a nil Sink, records go to a fresh in-memory sink.
func (s *System) EnableRecovery(cfg RecoveryConfig) {
	if cfg.Sink == nil {
		cfg.Sink = NewMemSink()
	}
	s.rec = &cfg
}

// touch marks a page the next incremental record must frame although it may
// not be dirty by then: an own interval named it, a diff was stored or
// applied, pushed data was written in place. Nothing to mark off recovery.
func (nd *Node) touch(pg int) {
	if nd.sys.rec != nil {
		nd.pages[pg].touched = true
	}
}

// injectFault fires the configured fault if this barrier arrival is its
// (rank, epoch): the node dies and recovers in place before arriving at b.
func (nd *Node) injectFault(b *barrier) {
	if r := nd.sys.rec; r != nil && r.Fault != nil && r.Fault.Rank == nd.ID && int64(r.Fault.Epoch) == nd.Stats.Barriers {
		nd.failAndRecover(b)
	}
}

// writeRecord serializes one recovery record and hands it to the sink.
// Full records carry the whole interval log and a frame for every page
// with any history; incremental records carry the per-owner interval
// delta since the previous record and frames only for pages whose
// image, diff cache, or bookkeeping could have moved since — dirty pages
// and touched ones (a diff store or push, an own interval closed since:
// touch). A page absent from every frame set is
// provably still zero-filled and untouched, so a restore needs no
// frame for it. A no-op unless recovery is armed.
//
// The wire.Checkpoint is a view, not a copy: its vector times, applied
// rows, page images, twins and diff runs alias the node's live state. That
// is safe because the record is encoded — into the node's reused buffer —
// before this function returns, and the caller holds the protocol token
// throughout, so nothing the view names can move under the encoder; the
// sink sees only the encoded bytes.
func (nd *Node) writeRecord() {
	r := nd.sys.rec
	if r == nil {
		return
	}
	nd.recEpoch++
	full := nd.recLast == nil || r.Every <= 1 || (int(nd.recEpoch)-1)%r.Every == 0
	ck := wire.Checkpoint{
		Node: int32(nd.ID), Epoch: nd.recEpoch, Full: full, VC: nd.vc, LastBar: nd.lastBar,
		Intervals: nd.recIvs[:0], Frames: nd.recFrames[:0], Diffs: nd.recDiffs[:0],
	}
	base := nd.recLast // a full record carries the whole log
	if full {
		base = nil
	}
	ck.Intervals = nd.appendIntervals(ck.Intervals, base)
	for _, pg := range nd.recordPages(full) {
		e := &nd.pages[pg]
		ck.Frames = append(ck.Frames, wire.PageFrame{
			Page:       int32(pg),
			Prot:       uint8(nd.Mem.Prot(pg)),
			Dirty:      e.dirty,
			LastDiffed: e.lastDiffed,
			Applied:    e.applied,
			Words:      nd.Mem.PageData(pg),
			Twin:       nd.Mem.TwinData(pg),
		})
		// The framed page's cached diff chain rides along, in cache
		// order: a restore replaces the page's cache with the newest
		// record's copy, so every record must carry the chains of
		// exactly the pages it frames (storeDiff touches the page).
		for _, d := range e.diffs {
			ck.Diffs = append(ck.Diffs, d.Diff)
		}
	}
	nd.recIvs, nd.recFrames, nd.recDiffs = ck.Intervals, ck.Frames, ck.Diffs
	nd.checkpointAdapt(&ck)
	blob, err := wire.AppendFrame(nd.recBuf[:0], &wire.Frame{Kind: wire.FCkpt, From: int32(nd.ID), Payload: ck})
	if err != nil {
		panic(fmt.Sprintf("tmk: encoding checkpoint record: %v", err))
	}
	nd.recBuf = blob
	if err := r.Sink.Put(nd.ID, ck.Epoch, full, blob); err != nil {
		panic(fmt.Sprintf("tmk: storing checkpoint record: %v", err))
	}
	nd.recLast = append(nd.recLast[:0], nd.vc...)
	// Only now, with the record stored: a sink may look at the node from
	// inside Put (the record-bytes tests' reference encoder does).
	for pg := range nd.pages {
		nd.pages[pg].touched = false
	}
	nd.RecStats.Checkpoints++
	if full {
		nd.RecStats.FullCheckpoints++
	}
	nd.RecStats.CheckpointBytes += int64(len(blob))
	nd.traceCkpt(len(blob), full, ck.Epoch)
}

// recordPages returns the ascending page set a record must frame, in the
// node's scratch: one walk of the page table, asking of each entry whether
// it has any history (a full record) or moved since the last record.
func (nd *Node) recordPages(full bool) []int {
	pages := nd.recPages[:0]
	for pg := range nd.pages {
		e := &nd.pages[pg]
		frame := e.dirty || e.touched
		if full {
			frame = e.dirty || e.lastDiffed > 0 || len(e.diffs) > 0 ||
				nd.Mem.Prot(pg) != vm.NoAccess || slices.Max(e.applied) > 0
		}
		if frame {
			pages = append(pages, pg)
		}
	}
	nd.recPages = pages
	return pages
}

// failAndRecover simulates this node's death at a barrier arrival and
// its in-place recovery. The node first drains every peer into the
// barrier — releasing the protocol token between checks, so peers can
// run, fetch (the "dead" node still answers; a pessimistic logger logs
// those serves, which the final incremental record below captures), and
// arrive — which guarantees machine-wide quiescence: no request is in
// flight when the links drop. It then detaches its transport links (on
// backends with real connections), wipes its memory image and protocol
// state, restores from the sink, and reattaches. Returning, the node
// proceeds into the barrier as the last arriver and so runs the barrier
// itself. (A single node has no peers to drain and nothing new to record.)
func (nd *Node) failAndRecover(b *barrier) {
	s := nd.sys
	if len(nd.held) > 0 {
		panic("tmk: injected fault while holding a lock")
	}
	nd.RecStats.Failures++
	vt, wt := nd.traceStart()
	nd.traceRecover(0, vt, wt)
	if s.N() > 1 {
		for len(b.arrivals) < s.N()-1 {
			nd.p.End()
			nd.p.Advance(recoveryPoll)
			nd.p.Begin()
		}
		// Quiesced: every peer is blocked in this barrier. Capture the
		// serves performed while they drained in.
		nd.writeRecord()
	}
	rec, _ := s.NW.(Recoverer)
	vt, wt = nd.traceStart()
	if rec != nil {
		if err := rec.Detach(nd.ID); err != nil {
			panic(fmt.Sprintf("tmk: detaching node %d: %v", nd.ID, err))
		}
	}
	nd.wipe()
	nd.restore()
	if rec != nil {
		if err := rec.Reattach(nd.ID); err != nil {
			panic(fmt.Sprintf("tmk: reattaching node %d: %v", nd.ID, err))
		}
	}
	nd.RecStats.Restores++
	nd.traceRecover(1, vt, wt)
}

// wipe discards everything a restore rebuilds: the memory image (with
// twins and protections), the interval log, timestamps, the diff cache,
// and the notice bookkeeping. Application-level run-time state survives
// — held locks (none at a fault), Validate registrations (wsync, a page's
// deferred mode) and the adaptNode pointer — as does Stats: the tables
// report the run, not the surviving replica. A page table entry keeps its
// applied and pending storage, emptied.
func (nd *Node) wipe() {
	for pg := range nd.pages {
		e := &nd.pages[pg]
		for _, d := range e.diffs {
			nd.recycle(d)
		}
		clear(e.applied)
		*e = page{applied: e.applied, pending: e.pending[:0], mode: e.mode, deferred: e.deferred}
	}
	nd.ndirty = 0
	nd.Mem.WipeForRestore()
	clear(nd.vc)
	clear(nd.lastBar)
	for o := range nd.know {
		nd.know[o] = truncated(nd.know[o])
	}
	nd.wsLast, nd.wsSeen = nd.wsLast[:0], nd.wsSeen[:0] // the responder index dies with the log it indexes
	nd.inflight, nd.inflightPages = nd.inflight[:0], nd.inflightPages[:0]
	nd.forgetDirectory()
}

// restore replays the node's record chain from the sink. See the file
// comment for what each piece is rebuilt from.
func (nd *Node) restore() {
	s := nd.sys
	recs, err := s.rec.Sink.Records(nd.ID)
	if err != nil {
		panic(fmt.Sprintf("tmk: reading checkpoint records for node %d: %v", nd.ID, err))
	}
	var last wire.Checkpoint
	for i, blob := range recs {
		f, _, err := wire.ParseFrame(blob)
		if err != nil {
			panic(fmt.Sprintf("tmk: decoding checkpoint record %d of node %d: %v", i, nd.ID, err))
		}
		ck, ok := f.Payload.(wire.Checkpoint)
		if !ok || int(ck.Node) != nd.ID {
			panic(fmt.Sprintf("tmk: record %d of node %d is not this node's checkpoint", i, nd.ID))
		}
		if i == 0 && !ck.Full {
			panic(fmt.Sprintf("tmk: record chain of node %d does not start at a full checkpoint", nd.ID))
		}
		for _, oi := range ck.Intervals {
			o := int(oi.Owner)
			if int32(len(nd.know[o]))+1 != oi.Idx {
				panic(fmt.Sprintf("tmk: node %d record gap: owner %d at %d, next record %d",
					nd.ID, o, len(nd.know[o]), oi.Idx))
			}
			nd.know[o] = append(nd.know[o], oi.IV)
		}
		for _, fr := range ck.Frames {
			pg := int(fr.Page)
			if fr.Dirty && fr.Twin == nil {
				panic(fmt.Sprintf("tmk: node %d record frames dirty page %d without a twin", nd.ID, pg))
			}
			nd.Mem.RestorePage(pg, fr.Words, vm.Prot(fr.Prot), fr.Twin)
			e := &nd.pages[pg]
			copy(e.applied, fr.Applied)
			e.lastDiffed = fr.LastDiffed
			nd.setDirty(pg, fr.Dirty)
			// The record's diff chain (appended below) supersedes whatever
			// an earlier record in the chain restored for this page.
			e.diffs = e.diffs[:0]
		}
		for _, wd := range ck.Diffs {
			e := &nd.pages[wd.Page]
			e.diffs = append(grown(&nd.st.lists, e.diffs), nd.newEntry(storedDiff{Diff: wd}))
		}
		last = ck
	}
	copy(nd.vc, last.VC)
	copy(nd.lastBar, last.LastBar)
	for o := 0; o < s.N(); o++ {
		if int32(len(nd.know[o])) != nd.vc[o] {
			panic(fmt.Sprintf("tmk: node %d restored log of owner %d has %d intervals, clock says %d",
				nd.ID, o, len(nd.know[o]), nd.vc[o]))
		}
	}
	// Pending notices: every restored interval not yet reflected in the
	// page's restored applied row is outstanding again, and the page
	// cannot stay mapped (same rule learnInterval enforces live).
	for o := 0; o < s.N(); o++ {
		if o == nd.ID {
			continue
		}
		for idx := int32(1); idx <= nd.vc[o]; idx++ {
			for _, ref := range nd.know[o][idx-1].Pages {
				pg := int(ref.Page)
				if nd.pages[pg].applied[o] >= idx {
					continue
				}
				nd.addNotice(pg, notice{owner: int32(o), idx: idx, whole: ref.Whole})
			}
		}
	}
	for pg := range nd.pages {
		if len(nd.pages[pg].pending) == 0 {
			continue
		}
		if nd.pages[pg].dirty {
			panic(fmt.Sprintf("tmk: node %d restored page %d dirty with pending notices", nd.ID, pg))
		}
		nd.Mem.SetProtInit(pg, vm.NoAccess)
	}
	nd.restoreAdapt(last)
	nd.recLast = append(nd.recLast[:0], last.VC...)
	nd.recEpoch = last.Epoch
}

// MemSink is the in-memory SnapshotSink: one live record chain per
// node, a full record dropping the chain before it. The dropped chain's
// buffers are recycled for later records (Records hands out copies, so no
// caller can be holding one), which is what keeps a steady-state record
// from allocating anything proportional to the image.
type MemSink struct {
	mu     sync.Mutex
	chains map[int][][]byte
	free   [][]byte
}

// NewMemSink returns an empty in-memory sink.
func NewMemSink() *MemSink { return &MemSink{chains: map[int][][]byte{}} }

// Put appends a copy of the record, compacting on full records.
func (m *MemSink) Put(node int, epoch int32, full bool, rec []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	buf := append(m.buffer(len(rec)), rec...)
	if full {
		m.free = append(m.free, m.chains[node]...)
		m.chains[node] = m.chains[node][:0]
	}
	m.chains[node] = append(m.chains[node], buf)
	return nil
}

// buffer takes a recycled buffer for an n-byte record off the free list:
// the smallest that holds it or, with none large enough, the largest, which
// append then regrows with room to spare (full records grow with the
// interval log, so each is a little larger than the buffer its predecessor
// left). Nil when nothing has been retired yet.
func (m *MemSink) buffer(n int) []byte {
	if len(m.free) == 0 {
		return nil
	}
	best := 0
	for i, b := range m.free {
		c, bc := cap(b), cap(m.free[best])
		if (c >= n && (bc < n || c < bc)) || (bc < n && c > bc) {
			best = i
		}
	}
	buf := m.free[best]
	last := len(m.free) - 1
	m.free[best], m.free[last] = m.free[last], nil
	m.free = m.free[:last]
	return buf[:0]
}

// Records returns a deep copy of the node's live chain.
func (m *MemSink) Records(node int) ([][]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.chains[node]
	if len(c) == 0 {
		return nil, fmt.Errorf("tmk: no checkpoint records for node %d", node)
	}
	out := make([][]byte, len(c))
	for i, rec := range c {
		out[i] = slices.Clone(rec)
	}
	return out, nil
}

// FileSink spills records to Dir, one file per record, named so a
// lexicographic listing is chain order. A full record removes the
// node's other files once it is itself in place.
type FileSink struct {
	Dir string
}

func (fs *FileSink) name(node int, epoch int32, full bool) string {
	k := byte('i')
	if full {
		k = 'f'
	}
	return fmt.Sprintf("ckpt-n%04d-e%08d-%c.bin", node, epoch, k)
}

// Put writes the record under a temporary name (which Records never lists),
// renames it into place, and only then drops the records a full one makes
// dead: a write that fails or is interrupted leaves the previous chain
// readable. A full record removes every other file of the node, higher
// epochs included — those are an earlier run's leftovers in a reused Dir,
// and Records (which starts at the newest full file) would restore from them.
func (fs *FileSink) Put(node int, epoch int32, full bool, rec []byte) error {
	path := filepath.Join(fs.Dir, fs.name(node, epoch, full))
	tmp := path + ".tmp"
	err := os.WriteFile(tmp, rec, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // best effort: Records never lists a temporary file
		return err
	}
	if !full {
		return nil
	}
	files, err := fs.files(node)
	if err != nil {
		return err
	}
	for _, f := range files {
		if f == path {
			continue
		}
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	return nil
}

// Records reads the node's chain from the newest full record on.
func (fs *FileSink) Records(node int) ([][]byte, error) {
	names, err := fs.files(node)
	if err != nil {
		return nil, err
	}
	start := -1
	for i, f := range names {
		if f[len(f)-5] == 'f' {
			start = i
		}
	}
	if start < 0 {
		return nil, fmt.Errorf("tmk: no full checkpoint record for node %d in %s", node, fs.Dir)
	}
	var out [][]byte
	for _, f := range names[start:] {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// files lists the node's record files in epoch order.
func (fs *FileSink) files(node int) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(fs.Dir, fmt.Sprintf("ckpt-n%04d-e*.bin", node)))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}
