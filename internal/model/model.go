// Package model defines the virtual-time cost model every host.Network
// charges. The default model is calibrated against the IBM SP/2 numbers the
// paper reports in Section 5:
//
//   - minimum user-space roundtrip (send/receive + interrupt): 365 µs
//   - minimum free lock acquire in TreadMarks: 427 µs
//   - minimum 8-processor barrier: 893 µs
//   - page fault / memory protection operation: 18–800 µs, growing with
//     the number of pages in use (AIX 3.2.5 behaviour)
//
// All results in this repository are ratios of these costs plus per-element
// compute costs, so matching these primitives is what makes the reproduced
// tables and figures keep the paper's shape.
package model

import "time"

// Costs parameterizes the simulated cluster and DSM runtime.
type Costs struct {
	// SendOverhead is CPU time spent by the sender to inject one message.
	SendOverhead time.Duration
	// WireLatency is the network transit time of a message.
	WireLatency time.Duration
	// RecvOverhead is CPU time (interrupt + dispatch) charged to the
	// receiver of a message.
	RecvOverhead time.Duration
	// PerByte is the transfer cost per payload byte (inverse bandwidth).
	PerByte time.Duration

	// LockMgmt is protocol bookkeeping charged per lock-request hop.
	LockMgmt time.Duration
	// BarrierMgmt is bookkeeping charged to the barrier master per episode.
	BarrierMgmt time.Duration

	// PageFault is the base cost of fielding an access fault (trap entry,
	// handler dispatch), excluding any protection changes or communication.
	PageFault time.Duration
	// ProtBase and ProtSlope model AIX mprotect: changing the protection of
	// one page costs ProtBase + ProtSlope × min(pagesInUse, ProtCap).
	ProtBase  time.Duration
	ProtSlope time.Duration // per page in use
	ProtCap   int           // pages-in-use count beyond which cost saturates

	// TwinPerWord is the cost per word of copying a page to make a twin.
	TwinPerWord time.Duration
	// DiffScanPerWord is the cost per word of comparing a page to its twin.
	DiffScanPerWord time.Duration
	// ApplyPerWord is the cost per word of applying received diff data.
	ApplyPerWord time.Duration
	// SectionScanPerPage is charged to a processor that must examine a page
	// on behalf of a Validate_w_sync request (Section 3.3 overhead).
	SectionScanPerPage time.Duration

	// RequestService is fixed CPU time to service a diff/page request,
	// excluding diff creation.
	RequestService time.Duration
	// ValidatePerPage is run-time bookkeeping charged per page named in a
	// Validate or Push call (section-to-page translation, notice lookup).
	ValidatePerPage time.Duration
}

// SP2 returns the cost model calibrated to the paper's platform.
//
// Derivation: one-way message = SendOverhead + WireLatency + RecvOverhead
// = 50 + 100 + 32.5 = 182.5 µs, so the minimal roundtrip is 365 µs. A free
// lock acquire is one roundtrip plus two LockMgmt charges = 427 µs. An
// 8-node barrier (7 serialized arrival interrupts at the master, 7
// serialized departure sends, plus BarrierMgmt) lands at ~893 µs; the
// micro-benchmark harness prints the measured value next to the paper's.
func SP2() Costs {
	return Costs{
		SendOverhead:       50 * time.Microsecond,
		WireLatency:        100 * time.Microsecond,
		RecvOverhead:       32500 * time.Nanosecond,
		PerByte:            25 * time.Nanosecond, // ~40 MB/s user-space MPL
		LockMgmt:           31 * time.Microsecond,
		BarrierMgmt:        60 * time.Microsecond,
		PageFault:          30 * time.Microsecond,
		ProtBase:           18 * time.Microsecond,
		ProtSlope:          391 * time.Nanosecond, // 18 µs → ~800 µs at 2000 pages
		ProtCap:            2000,
		TwinPerWord:        8 * time.Nanosecond,
		DiffScanPerWord:    12 * time.Nanosecond,
		ApplyPerWord:       10 * time.Nanosecond,
		SectionScanPerPage: 2 * time.Microsecond,
		RequestService:     25 * time.Microsecond,
		ValidatePerPage:    800 * time.Nanosecond,
	}
}

// OneWay returns the end-to-end latency of a message with n payload bytes,
// excluding sender/receiver CPU charges.
func (c Costs) OneWay(n int) time.Duration {
	return c.WireLatency + time.Duration(n)*c.PerByte
}

// ProtOp returns the cost of one page-protection change when pagesInUse
// pages are mapped.
func (c Costs) ProtOp(pagesInUse int) time.Duration {
	if pagesInUse > c.ProtCap {
		pagesInUse = c.ProtCap
	}
	return c.ProtBase + time.Duration(pagesInUse)*c.ProtSlope
}
