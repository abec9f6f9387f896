package tmk

import (
	"fmt"
	"slices"

	"sdsm/internal/vm"
	"sdsm/internal/wire"
)

// ReferenceRecord encodes the record node `node` is handing its sink right
// now — call it from inside SnapshotSink.Put — the way writeRecord built
// records before it aliased live state: every list of the wire.Checkpoint
// deep-copied into fresh storage, the incremental frame set collected
// through a map, the frame encoded from nil. It is the reference the
// record-bytes tests compare the zero-copy path against.
func ReferenceRecord(s *System, node int, full bool) []byte {
	nd := s.Nodes[node]
	n := s.N()
	ck := wire.Checkpoint{
		Node:    int32(nd.ID),
		Epoch:   nd.recEpoch,
		Full:    full,
		VC:      append([]int32(nil), nd.vc...),
		LastBar: append([]int32(nil), nd.lastBar...),
	}
	base := nd.recLast
	if full {
		base = make([]int32, n)
	}
	for o := 0; o < n; o++ {
		for idx := base[o] + 1; idx <= nd.vc[o]; idx++ {
			iv := nd.know[o][idx-1]
			ck.Intervals = append(ck.Intervals, wire.OwnedInterval{Owner: int32(o), Idx: idx, IV: wire.Interval{
				Pages: append([]wire.PageRef(nil), iv.Pages...),
			}})
		}
	}
	set := map[int]bool{}
	if full {
		for pg, e := range nd.pages {
			if e.dirty || e.lastDiffed > 0 || len(e.diffs) > 0 ||
				nd.Mem.Prot(pg) != vm.NoAccess || slices.Max(e.applied) > 0 {
				set[pg] = true
			}
		}
	} else {
		for pg, e := range nd.pages {
			if e.touched || e.dirty {
				set[pg] = true
			}
		}
		for idx := base[nd.ID] + 1; idx <= nd.vc[nd.ID]; idx++ {
			for _, ref := range nd.know[nd.ID][idx-1].Pages {
				set[int(ref.Page)] = true
			}
		}
	}
	for _, pg := range sortedKeys(set) {
		e := nd.pages[pg]
		fr := wire.PageFrame{
			Page:       int32(pg),
			Prot:       uint8(nd.Mem.Prot(pg)),
			Dirty:      e.dirty,
			LastDiffed: e.lastDiffed,
			Applied:    append([]int32(nil), e.applied...),
			Words:      append([]float64(nil), nd.Mem.PageData(pg)...),
		}
		if tw := nd.Mem.TwinData(pg); tw != nil {
			fr.Twin = append([]float64(nil), tw...)
		}
		ck.Frames = append(ck.Frames, fr)
		for _, d := range e.diffs {
			wd := d.Diff
			wd.Covers = append([]int32(nil), d.Covers...)
			wd.Runs = make([]wire.Run, len(d.Runs))
			for i, r := range d.Runs {
				wd.Runs[i] = wire.Run{Off: r.Off, Vals: append([]float64(nil), r.Vals...)}
			}
			ck.Diffs = append(ck.Diffs, wd)
		}
	}
	if nd.ad != nil {
		ck.Fetched, ck.Adapt = sortedKeys(nd.ad.fetched), nd.ad.det.Snapshot()
	}
	blob, err := wire.AppendFrame(nil, &wire.Frame{Kind: wire.FCkpt, From: int32(nd.ID), Payload: ck})
	if err != nil {
		panic(fmt.Sprintf("tmk: encoding the reference record: %v", err))
	}
	return blob
}
