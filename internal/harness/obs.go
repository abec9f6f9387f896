package harness

import "sdsm/internal/obs"

// Snapshot folds one Result into the unified metrics snapshot: network
// traffic, vm.Counters, tmk.ProtocolStats and tmk.RecoveryStats become
// namespaced counters in one obs.Snapshot (each named by the obs tag on
// its struct field), merged over the trace registry's own counters and
// histograms when the run was traced. Zero counters are omitted:
// adaptive counters only appear on adaptive runs, recovery counters only
// on recovery runs.
func Snapshot(res *Result) *obs.Snapshot {
	s := obs.NewSnapshot()
	if res.Trace != nil {
		s = res.Trace.Reg.Snapshot()
	}
	s.Set("time.ns", int64(res.Time))
	s.Set("net.msgs", res.Msgs)
	s.Set("net.bytes", res.Bytes)
	s.SetFields(&res.VM)
	s.SetFields(&res.Protocol)
	s.SetFields(&res.Recovery)
	return s
}
