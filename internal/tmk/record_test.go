package tmk_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sdsm/internal/adapt"
	"sdsm/internal/apps"
	"sdsm/internal/compiler"
	"sdsm/internal/host"
	"sdsm/internal/interp"
	"sdsm/internal/model"
	"sdsm/internal/sim"
	"sdsm/internal/tmk"
)

// checkingSink is a ChainSink that compares every record it is handed with
// tmk.ReferenceRecord of the writing node's state at that moment (Put runs
// inside writeRecord, under the protocol token, so the state is the one
// the record was encoded from).
type checkingSink struct {
	tmk.ChainSink
	t     *testing.T
	sys   *tmk.System
	recs  int
	fulls int
	bytes int64
}

func (c *checkingSink) Put(node int, epoch int32, full bool, rec []byte) error {
	c.recs++
	c.bytes += int64(len(rec))
	if full {
		c.fulls++
	}
	if want := tmk.ReferenceRecord(c.sys, node, full); !bytes.Equal(rec, want) {
		c.t.Errorf("node %d record %d (full=%v): %d bytes differ from the deep-copied reference's %d",
			node, epoch, full, len(rec), len(want))
	}
	return c.ChainSink.Put(node, epoch, full, rec)
}

// TestRecordBytesMatchReference runs whole applications with checkpointing
// armed and requires every blob the sink receives to be byte-equal to the
// frame encoded from nil out of a deep copy of the same state: aliasing
// live pages, reusing the list and encode scratch, and the map-free frame
// set change no byte of any record. Every case writes full and incremental
// records. The fault case restores mid-run, so the records after it are
// written from restored state into reused scratch.
func TestRecordBytesMatchReference(t *testing.T) {
	cases := []struct {
		app, set     string
		procs        int
		adapt, scale bool
		fault        *tmk.Fault
		wantBytes    int64 // 0: not pinned
	}{
		// sdsm-run -system tmk -app jacobi -set small -recover prints this
		// recovery.bytes; it is the fixed point for the record format and
		// the full-record rule.
		{app: "jacobi", set: "small", procs: 8, wantBytes: 119980556},
		{app: "spmv", set: "small", procs: 8},
		{app: "spmv", set: "small", procs: 8, adapt: true, scale: true, fault: &tmk.Fault{Rank: 2, Epoch: 5}},
	}
	for _, c := range cases {
		name := c.app + "-" + c.set
		if c.adapt {
			name += "-adapt-scale-fault"
		}
		t.Run(name, func(t *testing.T) {
			app, err := apps.ByName(c.app)
			if err != nil {
				t.Fatal(err)
			}
			prog := app.Build(c.procs)
			params := prog.Prepare(app.Sets[apps.DataSet(c.set)], c.procs)
			e := sim.NewEngine(c.procs)
			sys := tmk.New(e, host.NewNetwork(e, model.SP2()), compiler.BuildLayout(prog, params))
			if c.adapt {
				sys.EnableAdapt(adapt.Config{})
			}
			if c.scale {
				sys.EnableScale()
			}
			sink := &checkingSink{t: t, sys: sys}
			sys.EnableRecovery(tmk.RecoveryConfig{Sink: sink, Fault: c.fault})
			if err := interp.RunDSM(prog, sys, params); err != nil {
				t.Fatal(err)
			}
			var rs tmk.RecoveryStats
			for _, nd := range sys.Nodes {
				rs.Checkpoints += nd.RecStats.Checkpoints
				rs.FullCheckpoints += nd.RecStats.FullCheckpoints
				rs.CheckpointBytes += nd.RecStats.CheckpointBytes
				rs.Restores += nd.RecStats.Restores
			}
			if sink.recs == 0 || int64(sink.recs) != rs.Checkpoints || int64(sink.fulls) != rs.FullCheckpoints || sink.bytes != rs.CheckpointBytes {
				t.Fatalf("sink saw %d records (%d full, %d bytes), stats say %+v", sink.recs, sink.fulls, sink.bytes, rs)
			}
			if sink.fulls == 0 || sink.fulls == sink.recs {
				t.Fatalf("%d of %d records full: the run did not write both kinds", sink.fulls, sink.recs)
			}
			if c.wantBytes != 0 && sink.bytes != c.wantBytes {
				t.Fatalf("recovery.bytes %d, want %d", sink.bytes, c.wantBytes)
			}
			if c.fault != nil && rs.Restores != 1 {
				t.Fatalf("fault %+v: %d restores", *c.fault, rs.Restores)
			}
		})
	}
}

// TestFileSinkFailedPutKeepsChain makes a full record's write fail — a
// non-empty directory squats on the temporary name the record is written
// under — and requires the node's previous chain to still be on disk and
// readable: Put prunes only after the new record is in place. Once the
// obstacle is gone the same Put succeeds and retires the old chain.
func TestFileSinkFailedPutKeepsChain(t *testing.T) {
	dir := t.TempDir()
	fs := &tmk.FileSink{Dir: dir}
	chain := [][]byte{[]byte("full record, epoch 1"), []byte("incremental record, epoch 2")}
	if err := fs.Put(3, 1, true, chain[0]); err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(3, 2, false, chain[1]); err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(4, 1, true, []byte("another node's record")); err != nil {
		t.Fatal(err)
	}
	squatter := filepath.Join(dir, "ckpt-n0003-e00000003-f.bin.tmp")
	if err := os.MkdirAll(filepath.Join(squatter, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(3, 3, true, []byte("full record, epoch 3")); err == nil {
		t.Fatal("Put succeeded although its temporary file could not be written")
	}
	if got, err := fs.Records(3); err != nil || !slices.EqualFunc(got, chain, bytes.Equal) {
		t.Fatalf("after a failed full Put the chain is %q (err %v), want the previous %q", got, err, chain)
	}
	if err := os.RemoveAll(squatter); err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(3, 3, true, []byte("full record, epoch 3")); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.Records(3); err != nil || len(got) != 1 || string(got[0]) != "full record, epoch 3" {
		t.Fatalf("after the retried Put the chain is %q (err %v)", got, err)
	}
	left, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(left) != 2 {
		t.Fatalf("directory holds %q (err %v), want node 3's new record and node 4's", left, err)
	}
}

// TestFileSinkFullPutDropsHigherEpochs re-runs into a directory an earlier
// run left full: the new run's first full record has a lower epoch than the
// files on disk, and must still retire all of them — Records starts at the
// newest full file, so a surviving leftover would be what a fault restores.
func TestFileSinkFullPutDropsHigherEpochs(t *testing.T) {
	fs := &tmk.FileSink{Dir: t.TempDir()}
	for epoch := int32(1); epoch <= 5; epoch++ {
		if err := fs.Put(3, epoch, true, fmt.Appendf(nil, "first run, epoch %d", epoch)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Put(3, 6, false, []byte("first run, incremental")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(4, 5, true, []byte("another node's record")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(3, 1, true, []byte("second run, epoch 1")); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.Records(3); err != nil || len(got) != 1 || string(got[0]) != "second run, epoch 1" {
		t.Fatalf("chain after the second run's first full record is %q (err %v)", got, err)
	}
	if got, err := fs.Records(4); err != nil || len(got) != 1 || string(got[0]) != "another node's record" {
		t.Fatalf("node 4's chain is %q (err %v)", got, err)
	}
}
