package harness

import (
	"reflect"
	"testing"
	"time"

	"sdsm/internal/tmk"
	"sdsm/internal/vm"
)

// TestSnapshotNames pins the snapshot's counter vocabulary: a Result whose
// every counter holds a distinct non-zero value must fold into exactly
// these names with exactly these values. The names are read by sdsm-run's
// metrics block, sdsm-node's JSON endpoint and the benchmark; a counter
// that is renamed, dropped, or added without a name fails here.
func TestSnapshotNames(t *testing.T) {
	res := &Result{
		Time: 1 * time.Nanosecond, Msgs: 2, Bytes: 3,
		VM: vm.Counters{
			ReadFaults: 4, WriteFaults: 5, ProtOps: 6, Twins: 7, Diffs: 8, DiffWords: 9,
		},
		Protocol: tmk.ProtocolStats{
			LockAcquires: 10, Barriers: 11, Validates: 12, Pushes: 13,
			WSyncServes: 14, WSyncBcasts: 15, DiffFetches: 16, DiffsApplied: 17,
			WordsApplied: 18, Invalidations: 19, LockFetches: 20,
			AdaptPromotions: 21, AdaptSplits: 22, AdaptJoins: 23, AdaptDecays: 24,
			AdaptUpdates: 25, AdaptSpans: 26, AdaptPagesPushed: 27,
			AdaptLockGrants: 28, AdaptLockPagesPush: 29, AdaptLockPromotions: 30,
			AdaptLockDecays: 31, AdaptLockProbes: 32, AdaptLockStaleDrops: 33,
			DiffServes: 34, DirRedirects: 35, DirHops: 36, DirFallbacks: 37,
			AdaptRelayBytes: 38,
		},
		Recovery: tmk.RecoveryStats{
			Checkpoints: 39, FullCheckpoints: 40, CheckpointBytes: 41, Failures: 42, Restores: 43,
		},
	}
	want := map[string]int64{
		"time.ns": 1, "net.msgs": 2, "net.bytes": 3,
		"vm.faults.read": 4, "vm.faults.write": 5, "vm.prot.ops": 6,
		"vm.twins": 7, "vm.diffs": 8, "vm.diff.words": 9,
		"protocol.lock.acquires": 10, "protocol.barriers": 11,
		"protocol.validates": 12, "protocol.pushes": 13,
		"protocol.wsync.serves": 14, "protocol.wsync.bcasts": 15,
		"protocol.diff.fetches": 16, "protocol.diffs.applied": 17,
		"protocol.words.applied": 18, "protocol.invalidations": 19,
		"protocol.lock.fetches": 20,
		"adapt.promotions":      21, "adapt.splits": 22, "adapt.joins": 23,
		"adapt.decays": 24, "adapt.updates": 25, "adapt.spans": 26,
		"adapt.pages.pushed": 27, "adapt.lock.grants": 28, "adapt.lock.pages": 29,
		"adapt.lock.promotions": 30, "adapt.lock.decays": 31,
		"adapt.lock.probes": 32, "adapt.lock.stale.drops": 33,
		"protocol.diff.serves": 34, "scale.dir.redirects": 35,
		"scale.dir.hops": 36, "scale.dir.fallbacks": 37, "scale.relay.bytes": 38,
		"recovery.checkpoints": 39, "recovery.full": 40, "recovery.bytes": 41,
		"recovery.failures": 42, "recovery.restores": 43,
	}
	// The literal above must cover every counter the structs declare, or a
	// newly added field would be snapshotted (or forgotten) untested.
	for _, v := range []any{res.VM, res.Protocol, res.Recovery} {
		rv := reflect.ValueOf(v)
		for i := 0; i < rv.NumField(); i++ {
			if rv.Field(i).IsZero() {
				t.Errorf("%s.%s is not set by this test", rv.Type(), rv.Type().Field(i).Name)
			}
		}
	}
	got := Snapshot(res)
	if !reflect.DeepEqual(got.Counters, want) {
		for name, v := range want {
			if g, ok := got.Counters[name]; !ok || g != v {
				t.Errorf("counter %q = %d (present %v), want %d", name, g, ok, v)
			}
		}
		for name, v := range got.Counters {
			if _, ok := want[name]; !ok {
				t.Errorf("unexpected counter %q = %d", name, v)
			}
		}
	}
	if len(got.Histograms) != 0 {
		t.Errorf("untraced snapshot has histograms: %v", got.Histograms)
	}
}
