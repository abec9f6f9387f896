package tmk_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"sdsm/internal/adapt"
	"sdsm/internal/apps"
	"sdsm/internal/compiler"
	"sdsm/internal/host"
	"sdsm/internal/interp"
	"sdsm/internal/model"
	"sdsm/internal/sim"
	"sdsm/internal/tmk"
	"sdsm/internal/wire"
)

// checkingSink is a MemSink that compares every record it is handed with
// tmk.ReferenceRecord of the writing node's state at that moment (Put runs
// inside writeRecord, under the protocol token, so the state is the one
// the record was encoded from).
type checkingSink struct {
	*tmk.MemSink
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
	return c.MemSink.Put(node, epoch, full, rec)
}

// TestRecordBytesMatchReference runs whole applications with checkpointing
// armed and requires every blob the sink receives to be byte-equal to the
// frame encoded from nil out of a deep copy of the same state: aliasing
// live pages, reusing the list and encode scratch, and the map-free frame
// set change no byte of any record. The fault case restores mid-run, so the
// records after it are written from restored state into reused scratch.
func TestRecordBytesMatchReference(t *testing.T) {
	cases := []struct {
		app, set     string
		procs, every int
		adapt, scale bool
		fault        *tmk.Fault
		wantBytes    int64 // 0: not pinned
	}{
		// sdsm-run -system tmk -app jacobi -set small -recover prints this
		// recovery.bytes; it is the fixed point for the record format.
		{app: "jacobi", set: "small", procs: 8, every: 0, wantBytes: 142004504},
		{app: "jacobi", set: "small", procs: 8, every: 4},
		{app: "spmv", set: "small", procs: 8, every: 0},
		{app: "spmv", set: "small", procs: 8, every: 4},
		{app: "spmv", set: "small", procs: 8, every: 3, adapt: true, scale: true, fault: &tmk.Fault{Rank: 2, Epoch: 5}},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s-%s-every%d", c.app, c.set, c.every)
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
			sink := &checkingSink{MemSink: tmk.NewMemSink(), t: t, sys: sys}
			sys.EnableRecovery(tmk.RecoveryConfig{Sink: sink, Every: c.every, Fault: c.fault})
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
			if c.every > 1 && sink.fulls == sink.recs {
				t.Fatal("no incremental record was written")
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

// TestMemSinkRecordsSurvivePuts pins both halves of the SnapshotSink
// ownership rule on MemSink with buffer recycling on: Put keeps nothing of
// the caller's buffer (the caller overwrites it after every Put, as
// writeRecord does), and a chain Records returned stays intact across any
// number of later Puts — here 100 full records per node from concurrent
// writers — although each of them retires a chain into the free list.
func TestMemSinkRecordsSurvivePuts(t *testing.T) {
	const nodes, puts = 4, 100
	record := func(node int, epoch int32, buf []byte) []byte {
		words := make([]float64, 64+epoch) // every record a little larger than the last, as full records are
		for i := range words {
			words[i] = float64(epoch)
		}
		buf, err := wire.AppendFrame(buf[:0], &wire.Frame{Kind: wire.FCkpt, From: int32(node), Payload: wire.Checkpoint{
			Node: int32(node), Epoch: epoch, Full: epoch != 2, Frames: []wire.PageFrame{{Page: epoch, Words: words}},
		}})
		if err != nil {
			panic(err) // a Checkpoint always encodes; record runs off the test goroutine too
		}
		return buf
	}
	m := tmk.NewMemSink()
	held := make([][][]byte, nodes)
	for node := range held {
		buf := record(node, 1, nil)
		if err := m.Put(node, 1, true, buf); err != nil {
			t.Fatal(err)
		}
		buf = record(node, 2, buf)
		if err := m.Put(node, 2, false, buf); err != nil {
			t.Fatal(err)
		}
		clear(buf)
		var err error
		if held[node], err = m.Records(node); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for node := 0; node < nodes; node++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for epoch := int32(3); epoch < 3+puts; epoch++ {
				buf = record(node, epoch, buf)
				if err := m.Put(node, epoch, true, buf); err != nil {
					t.Error(err)
					return
				}
				got, err := m.Records(node)
				if err != nil || len(got) != 1 || !bytes.Equal(got[0], buf) {
					t.Errorf("node %d epoch %d: live chain %q, err %v", node, epoch, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for node, chain := range held {
		if len(chain) != 2 {
			t.Fatalf("node %d: held chain has %d records", node, len(chain))
		}
		for i, blob := range chain {
			f, _, err := wire.ParseFrame(blob)
			if err != nil {
				t.Fatalf("node %d: record %d held across %d full Puts no longer parses: %v", node, i+1, puts, err)
			}
			ck := f.Payload.(wire.Checkpoint)
			if int(ck.Node) != node || int(ck.Epoch) != i+1 || !bytes.Equal(blob, record(node, int32(i+1), nil)) {
				t.Fatalf("node %d: record %d held across %d full Puts changed (now node %d epoch %d)", node, i+1, puts, ck.Node, ck.Epoch)
			}
		}
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
