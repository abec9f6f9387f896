package vm

import (
	"testing"

	"sdsm/internal/host"
	"sdsm/internal/model"
	"sdsm/internal/shm"
)

func TestProtBatchCoalescesRuns(t *testing.T) {
	m := newMem(16 * shm.PageWords)
	costs := model.SP2()
	runOne(t, func(p host.Proc) {
		m.BeginProtBatch()
		for pg := 0; pg < 8; pg++ {
			m.SetProt(p, pg, ReadWrite) // one contiguous run
		}
		m.SetProt(p, 12, ReadOnly) // separate run
		before := p.Now()
		m.FlushProtBatch(p)
		if got := p.Now() - before; got != 2*costs.ProtOp(16) {
			t.Errorf("flush charged %v, want 2 ops", got)
		}
		if m.Counters.ProtOps != 2 {
			t.Errorf("ops = %d, want 2", m.Counters.ProtOps)
		}
	})
}

func TestProtBatchSplitsOnProtChange(t *testing.T) {
	m := newMem(8 * shm.PageWords)
	runOne(t, func(p host.Proc) {
		m.BeginProtBatch()
		m.SetProt(p, 0, ReadWrite)
		m.SetProt(p, 1, ReadOnly) // adjacent but different protection
		m.SetProt(p, 2, ReadOnly)
		m.FlushProtBatch(p)
		if m.Counters.ProtOps != 2 {
			t.Errorf("ops = %d, want 2 (rw run + ro run)", m.Counters.ProtOps)
		}
	})
}

func TestProtBatchCancelsChangeBack(t *testing.T) {
	m := newMem(4 * shm.PageWords)
	runOne(t, func(p host.Proc) {
		m.BeginProtBatch()
		m.SetProt(p, 0, ReadWrite)
		m.SetProt(p, 0, NoAccess) // back to the original: no syscall needed
		before := p.Now()
		m.FlushProtBatch(p)
		if p.Now() != before || m.Counters.ProtOps != 0 {
			t.Errorf("change-back should be free: %d ops", m.Counters.ProtOps)
		}
		// Pages changed out of page order, one of them changed back: the
		// flush finds its runs in page order whatever order the batch saw
		// the pages in — {0} and {2}, not one run and not three.
		m.BeginProtBatch()
		for _, pg := range []int{2, 0, 1} {
			m.SetProt(p, pg, ReadWrite)
		}
		m.SetProt(p, 1, NoAccess)
		m.FlushProtBatch(p)
		if m.Counters.ProtOps != 2 {
			t.Errorf("pages 2, 0, 1 with 1 changed back: %d ops, want 2", m.Counters.ProtOps)
		}
	})
}

func TestProtBatchReentrant(t *testing.T) {
	m := newMem(4 * shm.PageWords)
	runOne(t, func(p host.Proc) {
		m.BeginProtBatch()
		m.BeginProtBatch()
		m.SetProt(p, 0, ReadWrite)
		m.FlushProtBatch(p) // inner flush: still batching
		if m.Counters.ProtOps != 0 {
			t.Error("inner flush must not charge")
		}
		m.SetProt(p, 1, ReadWrite)
		m.FlushProtBatch(p)
		if m.Counters.ProtOps != 1 {
			t.Errorf("outer flush charged %d ops, want 1 (contiguous run)", m.Counters.ProtOps)
		}
	})
}

func TestProtBitsVisibleDuringBatch(t *testing.T) {
	m := newMem(2 * shm.PageWords)
	runOne(t, func(p host.Proc) {
		m.BeginProtBatch()
		m.SetProt(p, 0, ReadWrite)
		if m.Prot(0) != ReadWrite {
			t.Error("protection bit must apply immediately inside a batch")
		}
		m.FlushProtBatch(p)
	})
}
