// Package wire defines the versioned wire format of the DSM machine: the
// message vocabulary the protocol layers exchange (mp sends, lock grants
// with write notices, barrier departures with interval metadata, diff
// requests and diff payloads, Push sections), and a binary codec with
// length-prefixed framing for carrying them over a byte stream.
//
// The types here are pure values — plain structs of integers, flags, and
// float slices, with no pointers into any node's protocol state. That is
// the package's contract and the reason it exists: the in-process backends
// historically passed Go pointers through the Transport seam (a diff
// cached at one node was the same object at every node), which made a
// process-per-node deployment impossible. Everything that crosses the seam
// is now expressible as a wire value; the in-process transports pass the
// values directly, the socket transports encode them — a struct payload
// by pointer either way, under the one ownership rule Frame.Payload
// states. The layers above hold their protocol data in these types too —
// vm's diff runs, tmk's interval log and diff cache — so there is no
// second representation to convert to or from (DESIGN.md §1).
//
// Encoding rules: frames are length-prefixed (u32 little-endian) and carry
// a one-byte format version, a one-byte frame kind, fixed-width routing
// fields, and a payload introduced by a one-byte payload kind. Counts are
// unsigned varints, scalars are fixed-width little-endian. Decoding is
// total: malformed input yields an error, never a panic, and allocations
// are bounded by the input length (FuzzWireRoundTrip enforces both, plus
// decode/encode/decode identity).
//
// The codec is one direction-agnostic coder (codec.go): every type has a
// single walker that names its fields once, in wire order, and the same
// walker encodes and decodes — a field added to a type is one line, and
// the two directions cannot disagree about it
// (TestWalkersRoundTripEveryPayload, DESIGN.md §9).
package wire

import "slices"

// Version is the wire-format version carried by every frame. Peers reject
// frames with any other version (the format has no negotiation; both ends
// of a machine are the same build).
const Version = 10

// MaxFrame bounds the encoded size of one frame (64 MiB), a sanity limit
// protecting the decoder from corrupt length prefixes.
const MaxFrame = 64 << 20

// Frame kinds: the transport-level envelope types.
const (
	// FHello identifies a node to the switch (From = node id).
	FHello byte = 1 + iota
	// FMsg is a mailbox message (host.Transport.Send/SendShared): Tag is
	// the mailbox tag, Bytes the accounted size, Time the virtual arrival.
	FMsg
	// FHand is a staged protocol payload (lock grant, barrier departure)
	// delivered out of band of the mailbox; Tag is the slot.
	FHand
	// FReq is a request/reply exchange's request; Tag is the request id,
	// Bytes the accounted request size.
	FReq
	// FReply answers an FReq: Tag echoes the request id, Bytes is the
	// accounted reply size, Time the service time charged at the target.
	FReply
	// FStart configures a spawned worker process (coordinator → worker).
	FStart
	// FDone reports a worker's final state (worker → coordinator): Time is
	// the worker's virtual clock.
	FDone
	// FCkpt carries a Checkpoint recovery record (node → SnapshotSink).
	// Checkpoint frames never travel between peers mid-protocol; they are
	// streamed to a coordinator or spooled to disk at barrier arrivals.
	FCkpt
	// FJob submits one job (payload JobSpec) from a requester to whoever
	// serves it — client → coordinator, and coordinator → pool daemon, the
	// same exchange on both hops. Tag is the requester's correlation nonce,
	// echoed on every frame about the job.
	FJob
	// FJobAccept admits a submitted job (server → requester): Tag echoes
	// the submit nonce, the JobDecision payload carries the id the server
	// assigned.
	FJobAccept
	// FJobReject refuses a submitted job (server → requester): Tag echoes
	// the submit nonce, the JobDecision payload carries the reason.
	// Rejection is a per-job verdict, never a connection error — the
	// server keeps serving the connection and the pool.
	FJobReject
	// FJobResult reports a finished job (payload JobResult), server →
	// requester; a coordinator relaying a daemon's result puts its own job
	// id back on it.
	FJobResult
	// FPoolHello attaches a warm pool daemon to the coordinator
	// (daemon → coordinator): From is unused, Tag carries the daemon's
	// rank-slot capacity, and there is no payload.
	FPoolHello
)

// Frame is one wire exchange: the envelope plus a decoded payload.
type Frame struct {
	Kind     byte
	From, To int32
	// Tag is the mailbox tag (FMsg), hand slot (FHand), or request id
	// (FReq/FReply).
	Tag int32
	// Bytes is the accounted payload size in the cost model, not the
	// encoded size (headers the paper's platform would send are accounted
	// even though this codec does not materialize them).
	Bytes int32
	// Time carries virtual nanoseconds: arrival (FMsg), service (FReply),
	// final clock (FDone).
	Time int64
	// Payload is nil, a []float64, or a pointer to one of the payload
	// structs below: every struct payload crosses in that one form. The
	// pointer names storage its sender owns — a node's scratch or store,
	// a reused buffer, a caller's local — and the sender leaves it alone
	// until the recipient has consumed the payload (on a socket transport,
	// until the frame is encoded). A decoded struct payload is a pointer
	// too: into the reader's arena for a diff request, diff reply, grant
	// or departure, fresh heap for the rest. (The encoder still takes one
	// value, a DiffReply, for bench/probes.go alone.)
	Payload any
}

// Payload kinds. Kinds 5 and 8 are reserved: they were barrier arrivals
// and acquire info, which no frame carries (Arrival, SyncInfo), and the
// kinds after them keep their numbers.
const (
	pNil byte = iota
	pFloat64s
	pDiffRequest
	pDiffReply
	pGrant
	_ // reserved
	pDepart
	pPush
	_ // reserved
	pStart
	pDone
	pUpdate
	pCheckpoint
	pJobSpec
	pJobDecision
	pJobResult
)

// Run is a contiguous span of modified words within a page, the unit a
// diff is made of: Off is the word offset within the page. The vm package
// produces and applies these values directly (vm.Run is this type).
type Run struct {
	Off  int32
	Vals []float64
}

// Diff is one unit of modification data: a twin-based diff covering the
// creator's intervals (From, To], or a whole-page snapshot (Whole).
// Covers is the creator's per-owner applied timestamps for the page at
// creation (own entry raised to To) — the ordering timestamp receivers
// apply overlapping diffs by, and the subsumption set for whole snapshots.
type Diff struct {
	Page    int32
	Creator int32
	From    int32 // exclusive
	To      int32 // inclusive
	Whole   bool
	Covers  []int32
	Runs    []Run
}

// DiffRequest asks a responder for the outstanding modifications of a set
// of pages. Req is the requesting node (its own diffs are never returned);
// Applied[i] is the requester's per-owner applied timestamps for Pages[i]
// — carried explicitly so the responder decides what the requester lacks
// from the request alone, never from the requester's in-memory state.
type DiffRequest struct {
	Req     int32
	Pages   []int32
	Applied [][]int32
	// Direct forbids directory redirects: the responder must serve from
	// its own cache even when its ownership hint says another node holds
	// the chain head. Requesters set it after exhausting a forwarding
	// chain (hop cap or cycle), making the noticed owner — who can always
	// serve its own diffs — the unconditional backstop.
	Direct bool
}

// DiffReply returns the diffs a responder served for a DiffRequest.
// Redirects name, for requested pages the responder has delegated, the
// node it delegated each page's chain to: "ask Owner". The requester —
// never the responder — follows the chain, so serve handlers stay
// request-free and deadlock-free. Empty except in scale mode.
type DiffReply struct {
	Diffs     []Diff
	Redirects []PageOwner
}

// PageOwner names the node to ask for one page's diff chain: the unit of
// DiffReply redirects.
type PageOwner struct {
	Page  int32
	Owner int32
}

// PageRef names a page within an interval record; Whole marks pages the
// interval overwrote entirely without twinning (WRITE_ALL). ExtLo/ExtHi
// carry the owner's write extent within the page — the [lo, hi) word
// range its established write regions covered — which the adaptive
// protocol's sub-page split detection reads to tell spatial false sharing
// (two writers, disjoint extents) from a genuine write conflict. ExtHi ==
// 0 means the extent is unknown and readers must assume the whole page.
// The extents exist for the adaptive protocol, so their cost follows the
// adaptive convention: ExtentBytes is charged on top of NoticeBytes only
// when adaptation is enabled — adapt-off notice accounting never includes
// them.
type PageRef struct {
	Page         int32
	Whole        bool
	ExtLo, ExtHi int32
}

// Interval records the pages one owner modified in one interval.
type Interval struct {
	Pages []PageRef
}

// NoticeBytes is the accounted size of a write notice covering n pages —
// the single size formula every leg (grants, barrier arrivals and
// departures) charges with.
func NoticeBytes(n int) int { return 8 + 4*n }

// FetchedBytes is the accounted size of a Fetched relay page list under
// the version-7 raw-or-span encoding: an 8-byte header plus the cheaper
// of one word per page (raw) or two words per contiguous run (spans) —
// the same heuristic the codec's pageSet encoder applies, so accounting
// and encoding cannot diverge. Sorted input is the protocol invariant
// (fetchedSorted); an unsorted list degenerates to raw pricing.
func FetchedBytes(pages []int32) int {
	raw := 4 * len(pages)
	spans := 8 * countRuns(pages)
	if spans < raw {
		return 8 + spans
	}
	return 8 + raw
}

// countRuns counts the maximal contiguous ascending runs of a sorted
// page list (allocation-free; the span encoder and FetchedBytes share
// it).
func countRuns(pages []int32) int {
	runs := 0
	for i, p := range pages {
		if i == 0 || p != pages[i-1]+1 {
			runs++
		}
	}
	return runs
}

// ExtentBytes is the additional accounted size of the write extents a
// notice carries for the adaptive protocol, given how many of its page
// references carry a *partial* extent. Full-page and unknown extents —
// the overwhelmingly common cases — are flag states in the per-page
// slot NoticeBytes already charges; only a partial extent (a write that
// covered part of the page, the false-sharing evidence) appends one
// 4-byte word holding its two 16-bit offsets. Charged only when
// adaptation is enabled, like the Fetched relay lists — with adaptation
// off the accounted protocol is byte-for-byte the version-2 one.
func ExtentBytes(partial int) int { return 4 * partial }

// PartialExtent reports whether a write extent [lo, hi) is known and
// covers less than a whole page of pageWords words — the single
// definition of "partial" both the sender-side and relay-side extent
// accounting charge by.
func PartialExtent(lo, hi int32, pageWords int) bool {
	return hi != 0 && !(lo == 0 && int(hi) == pageWords)
}

// PartialExtents counts the page references whose extent is partial —
// the refs ExtentBytes charges for.
func (iv Interval) PartialExtents(pageWords int) int {
	n := 0
	for _, pr := range iv.Pages {
		if PartialExtent(pr.ExtLo, pr.ExtHi, pageWords) {
			n++
		}
	}
	return n
}

// WireBytes is the accounted size of the interval's write notice,
// without the adaptive extent surcharge (see ExtentBytes).
func (iv Interval) WireBytes() int { return NoticeBytes(len(iv.Pages)) }

// AccountedBytes is the accounted size of the interval's write notice,
// with the adaptive extent surcharge folded in when extents is true —
// the single definition every charging site (grants, barrier arrivals
// and departures) uses, so sender-side and relay-side accounting cannot
// diverge.
func (iv Interval) AccountedBytes(extents bool, pageWords int) int {
	b := iv.WireBytes()
	if extents {
		b += ExtentBytes(iv.PartialExtents(pageWords))
	}
	return b
}

// OwnedInterval is an interval tagged with its owner and index, the unit
// of a write notice.
type OwnedInterval struct {
	Owner int32
	Idx   int32
	IV    Interval
}

// WSyncNeed is one registered Validate_w_sync carried on a synchronization
// message: the pages whose data should piggyback on the response, with the
// requester's applied timestamps per page.
type WSyncNeed struct {
	Pages   []int32
	Applied [][]int32
}

// SyncInfo is what an acquirer presents at a lock acquire: its vector time
// (so the releaser can compute the write notices it lacks) and its pending
// Validate_w_sync registrations. Floors carries the acquirer's per-page
// applied timestamps for the pages its predicted hand-off edge is bound
// to (the lock-scope adaptive piggyback): without them the releaser must
// ship its full cached chain per bound page — the diff-accumulation cost
// the paper reports for IS — while a floor lets it trim the chain to the
// suffix the acquirer lacks. Floors are exact, not advisory: they are
// snapshotted when the acquire is presented, and the acquirer's applied
// timestamps cannot advance before the grant is built (it blocks, and the
// remote serve path never touches another node's applied state). Empty
// when adaptation is off or the predicted edge is unbound, and accounted
// (FloorBytes) only when adaptation is on — adapt-off request accounting
// never includes them. No frame carries one: the granter reads it from the
// lock's shared control state, where the acquire left it.
type SyncInfo struct {
	VC     []int32
	Needs  []WSyncNeed
	Floors []WSyncNeed
}

// FloorBytes is the accounted size of the applied floors an acquire
// request carries for pages of bound hand-off edges: a 4-byte page id
// plus a 4-byte timestamp per owner, for each of pages pages on an
// n-node machine. Charged on the acquire request legs only when
// adaptation is enabled, like every other adaptive surcharge.
func FloorBytes(pages, n int) int { return pages * (4 + 4*n) }

// Grant carries what a releaser hands to an acquirer: the write notices
// the acquirer lacks plus any diffs piggybacked for a Validate_w_sync.
// Pushed carries the lock-scope adaptive updates: diffs for the pages the
// per-lock detector predicts the acquirer will fault on in its critical
// section, piggybacked the same way Validate_w_sync piggybacks
// compiler-known data (empty when adaptation is disabled or the hand-off
// edge is not bound), and coalesced into section spans — the releaser's
// chains repeat the same header across a critical section's contiguous
// pages, so a span costs one header instead of one per page.
// Receivers expand the spans and apply Served and Pushed through the same
// diff path. Bytes is the accounted size of the grant message.
type Grant struct {
	Intervals []OwnedInterval
	Served    []Diff
	Pushed    []DiffSpan
	Bytes     int32
}

// Arrival is a barrier arrival message: the arriver's vector time and
// every interval closed since its last barrier departure (the master
// deduplicates against what it already learned through lock transfers),
// plus its Validate_w_sync registrations. Fetched lists the pages the
// arriver demand-fetched remote data for during the ending epoch — the
// access-pattern observation the adaptive protocol aggregates (empty when
// adaptation is disabled). No frame carries one: the barrier master reads
// every arrival from the barrier's shared control state.
type Arrival struct {
	VC        []int32
	Intervals []OwnedInterval
	Needs     []WSyncNeed
	Fetched   []int32
}

// NodePages attributes a sorted page list to one node; the unit in which
// barrier departures relay the per-node fetch observations.
type NodePages struct {
	Node  int32
	Pages []int32
}

// Depart is a barrier departure message for one node: the common departure
// time, the write notices the node lacks, and the diffs answering its
// Validate_w_sync registrations. Fetched relays every arriver's fetch
// observation (sorted by node) so each node can advance the same adaptive
// pattern detector on the same global input; empty when adaptation is
// disabled.
type Depart struct {
	Time      int64
	Intervals []OwnedInterval
	Served    []Diff
	Fetched   []NodePages
}

// Chunk is a contiguous span of words sent by Push, received in place.
type Chunk struct {
	Lo   int32
	Vals []float64
}

// Push is a point-to-point section exchange replacing a barrier: raw data
// chunks plus the sender's newest closed interval (so receivers record the
// sections as applied).
type Push struct {
	Ivl    int32
	Chunks []Chunk
}

// Update is the adaptive protocol's piggybacked push: the diffs a producer
// sends to a bound consumer right after a barrier departure, replacing the
// consumer's invalidate-and-fault fetch for pages whose producer→consumer
// pattern has stabilized — run-length section encoded, one DiffSpan per
// contiguous page span the binding covers (a 16-page producer span costs
// one header; receivers expand it back to per-page diffs, so the span is
// a header economy only). Epoch is the producer's barrier count when the
// update was sent (diagnostic; the diffs carry their own ordering
// timestamps and receivers apply them through the normal diff path).
type Update struct {
	Epoch int32
	Spans []DiffSpan
}

// DiffSpan is the run-length section encoding of per-page diffs: the
// diffs of the contiguous page range [Page, Page+len(Pages)) that share
// one creator, interval range, whole flag, and coverage vector, each page
// contributing only its runs. It exists purely as a header economy — a
// span expands losslessly into the per-page Diff values of the version-3
// format (Expand), and a single-page span round-trips to exactly the Diff
// it was coalesced from — so nothing downstream of the codec changes
// semantics.
type DiffSpan struct {
	Page    int32 // first page of the span
	Creator int32
	From    int32 // exclusive
	To      int32 // inclusive
	Whole   bool
	Covers  []int32
	Pages   [][]Run // runs per page, offsets page-relative
}

// WireBytes is the accounted size of the span: the 16-byte diff header
// once, a 4-byte page-map entry per additional page, plus the run
// payloads (one word of header per run plus its data words) — the
// version-3 form charged the full 16-byte header per page.
func (s DiffSpan) WireBytes() int {
	n := 16 + 4*(len(s.Pages)-1)
	for _, runs := range s.Pages {
		for _, r := range runs {
			n += 8 * (1 + len(r.Vals))
		}
	}
	return n
}

// ExpandSpans appends to dst the flat diff list of the version-3 per-page
// form a span list encodes, and returns the extended list. Covers is
// copied per page — expanded diffs are independent values, and receivers
// cache them separately — into windows of one fresh backing array, each
// capped at its own length; dst holds only the Diff headers, so a caller
// may reuse it once it has consumed them.
func ExpandSpans(dst []Diff, spans []DiffSpan) []Diff {
	pages, words := 0, 0
	for _, s := range spans {
		pages += len(s.Pages)
		words += len(s.Pages) * len(s.Covers)
	}
	if pages == 0 {
		return dst
	}
	out, covers := slices.Grow(dst, pages), make([]int32, 0, words)
	for _, s := range spans {
		for i, runs := range s.Pages {
			at := len(covers)
			covers = append(covers, s.Covers...)
			out = append(out, Diff{
				Page: s.Page + int32(i), Creator: s.Creator,
				From: s.From, To: s.To, Whole: s.Whole,
				Covers: covers[at:len(covers):len(covers)],
				Runs:   runs,
			})
		}
	}
	return out
}

// CoalesceDiffs appends to dst the maximal section spans a diff list
// groups into, and returns the extended list: a diff joins the span of the
// preceding page when everything but its page and runs matches (creator,
// interval range, whole flag, coverage). Diffs that share a page with
// different headers — a chain — start parallel spans, so chains of
// adjacent pages coalesce link-wise. The encoding is lossless:
// ExpandSpans(nil, CoalesceDiffs(nil, ds)) contains exactly the diffs of
// ds (order may interleave across chains; receivers order by coverage).
//
// A span appended within dst's capacity reuses the Pages array the slot
// held, so a caller that passes its previous result back as dst[:0] grows
// nothing in steady state. Every span's Pages is an array of its own:
// appending to one never writes another's.
//
// The join search looks at the newest span with the diff's header only:
// callers emit a header group's diffs in ascending page order (diff caches
// are walked page-major), so that span is the only one a later diff of the
// header could ever be contiguous with. It is found by walking the spans
// built so far backwards, comparing the four scalar fields before Covers.
// The walk allocates nothing but is quadratic in distinct headers: barrier
// updates carry 1–2, 8-proc lock grants up to 10, 32-proc -scale grants up
// to 60 (is/large: 47 over 94 diffs). BenchmarkCoalesceDiffs has the shape;
// a map keyed on the scalar fields overtakes the walk near 200 headers.
func CoalesceDiffs(dst []DiffSpan, ds []Diff) []DiffSpan {
	out, base := dst, len(dst)
next:
	for _, d := range ds {
		for i := len(out) - 1; i >= base; i-- {
			s := &out[i]
			if s.Creator != d.Creator || s.From != d.From || s.To != d.To || s.Whole != d.Whole || !slices.Equal(s.Covers, d.Covers) {
				continue
			}
			if s.Page+int32(len(s.Pages)) == d.Page {
				s.Pages = append(s.Pages, d.Runs)
				continue next
			}
			break
		}
		var pages [][]Run
		if len(out) < cap(out) {
			pages = out[:len(out)+1][len(out)].Pages[:0]
		}
		out = append(out, DiffSpan{
			Page: d.Page, Creator: d.Creator, From: d.From, To: d.To,
			Whole: d.Whole, Covers: d.Covers, Pages: append(pages, d.Runs),
		})
	}
	return out
}

// Start configures a spawned worker process: which application to run on
// which rank of how many, with the harness's distribution overhead and
// verification switch. Workers re-derive problem parameters from
// (App, Set, N) deterministically.
type Start struct {
	App      string
	Set      string
	N        int32
	Overhead int64 // per-phase distribution overhead, nanoseconds
	Verify   bool
}

// Done reports a worker's terminal state: its checksum contribution (rank
// 0 only, when verifying) and an error description, empty on success. The
// final virtual clock travels in the frame's Time field.
type Done struct {
	Checksum float64
	Err      string
}

// PageFrame is one page's recovery image inside a Checkpoint: its
// contents, protection, dirty flag, the newest own interval its
// modifications are published through (LastDiffed), and the per-owner
// applied timestamps the contents reflect. Contents plus applied floor
// travel together so a restored node can refetch exactly the diff
// suffix it lacks — the redo argument of DESIGN.md §10.
type PageFrame struct {
	Page       int32
	Prot       uint8 // vm.Prot
	Dirty      bool
	LastDiffed int32
	Applied    []int32
	Words      []float64
	// Twin is the write-detection twin image for a dirty page (empty
	// otherwise). It is checkpointed verbatim: restoring the twin as a
	// copy of the current contents instead would erase the undiffed
	// epoch's writes from the next twin comparison.
	Twin []float64
}

// Checkpoint is one node's recovery record for one barrier epoch,
// written at barrier arrival (after the epoch's write interval closed,
// before the arrival is presented — log-before-send). A Full record
// carries the node's complete interval log and every resident page
// frame; an incremental record carries only the intervals learned and
// the frames touched since the previous record. A node's state at a
// barrier is reconstructed from its newest full record plus the
// incremental records after it.
type Checkpoint struct {
	Node  int32
	Epoch int32 // the node's barrier count when the record was written
	Full  bool
	// VC and LastBar are the node's vector time and last global barrier
	// time at the record point.
	VC      []int32
	LastBar []int32
	// Intervals are the write notices learned since the previous record
	// (all of them for a Full record), per owner in ascending index
	// order — the restored interval log must be gap-free.
	Intervals []OwnedInterval
	// Frames are the page images touched since the previous record
	// (every resident or ever-owned page for a Full record).
	Frames []PageFrame
	// Diffs is the node's cached diff chain for every framed page, in
	// cache order. The cache must be checkpointed, not resynthesized:
	// peers direct requests by the node's advertised coverage, and a
	// whole-page stand-in would overwrite words that concurrent writers
	// of the same page own (the multiple-writer protocol never ships a
	// whole page unless the WRITE_ALL exactness contract holds).
	Diffs []Diff
	// Fetched is the node's demand-fetch observation set for the ending
	// epoch and Adapt the serialized pattern detector (adapt.Snapshot),
	// present only when the adaptive protocol is enabled — the restored
	// replica must agree with the survivors without negotiation.
	Fetched []int32
	Adapt   []byte
}

// JobSpec describes one job submitted to the DSM service (internal/svc):
// which application/data-set/system to run on how many pool ranks, with
// the protocol switches of harness.Config that are meaningful per job.
// Everything a job needs is derivable from the spec — like Start, the
// frame is the worker's whole configuration, which is what lets a dead
// coordinator or daemon be replaced without shared state.
type JobSpec struct {
	// ID is the job id of whoever last admitted the spec: zero on a
	// client's submit frame, the coordinator's on the frame it dispatches
	// to a pool daemon (which assigns its own for the run).
	ID int64
	// App, Set and System name the run (apps.ByName, harness.SystemKind
	// "tmk"/"opt-tmk"). Backend names the host backend per job ("" = sim —
	// the deterministic choice the service's latency tables rely on).
	App, Set, System, Backend string
	// Procs is the rank-subset size the job claims from the pool.
	Procs int32
	// Adapt and Scale arm the adaptive protocol and scale mode for the
	// job, exactly as the same-named harness.Config fields.
	Adapt, Scale bool
	// Verify computes the job's checksum against its layout (the field
	// every service equivalence test pins).
	Verify bool
}

// JobDecision is the coordinator's admission verdict for one submitted
// job: the assigned id on acceptance, the refusal reason on rejection
// (queue full, malformed spec, oversized rank request).
type JobDecision struct {
	ID     int64
	Reason string
}

// JobResult is a finished job's report: the checksum and deterministic
// virtual time (the golden-pinned columns of the service table), the
// headline traffic and protocol counters, the run's wall-clock duration
// as measured by the executing pool, and an error description, empty on
// success.
type JobResult struct {
	ID           int64
	Checksum     float64
	VirtualNS    int64
	WallNS       int64
	Msgs, Bytes  int64
	Segv         int64
	DiffFetches  int64
	Barriers     int64
	LockAcquires int64
	Err          string
}
