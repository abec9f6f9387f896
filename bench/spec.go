package main

import (
	"encoding/json"
	"strings"
)

// The benchmark's contract, in one place: BENCHMARK.json at the repository
// root is this table rendered by -spec, and bench_test.go fails when the
// two drift apart.

// runSeconds is the timed section the driver asks for (--seconds). Sized so
// that set-up (three times, for a median), the timed section and one
// round of overshoot stay under ~25 s on two cores for every workload: the
// driver makes 114 runs and two builds in 3420 s.
const runSeconds = 15

// e2eMetric is one end-to-end metric: what a user of the system waits for
// or pays. Bound is the share of the parent's median by which the metric
// may worsen before a change counts as a regression.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// The end-to-end metrics, the same eight on every workload. An op is one
// harness.Run call, or one job submit→result on svc-mix. ISSUE 12's ninth,
// failed_frac, is always 0 on a healthy tree, which a ratio-to-median
// bound cannot express; it is carried by the result line's "failed" and
// "attempted" counts instead and a non-zero value fails the run.
//
// The host-time bounds are wider than ISSUE 12's 10–15 %: on the two-core
// box ten calibrated runs spread by 2–7 % (throughput, CPU) and 2–12 % (the
// percentiles, each the median of one config's dozen samples), and a bound
// has to be about three spreads to mean anything. README.md has the runs.
var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.20},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
	// Virtual (simulated SP/2) time, the paper's metric: exact on sim, so
	// its unit is deliberately not a host-time unit.
	{"virt_ms_per_op", "virt-ms", "lower", 0.01},
}

// layerMetric is one per-layer metric of the traced pass. A metric a
// workload does not exercise (svc.* on a batch workload, another
// workload's config names) is reported as 0 there.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// perLayer lists the per-layer metrics in layer order.
var perLayer = buildPerLayer()

func buildPerLayer() []layerMetric {
	var out []layerMetric
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, layerMetric{n, unit, better})
		}
	}
	add("ms", "lower", "apps.build_ms", "compiler.compile_ms", "compiler.layout_ms",
		"interp.run_ms", "interp.seq_ms")
	seen := map[string]bool{} // net-base reports under sim-base's config names
	for _, w := range workloads() {
		for _, c := range w.configs {
			if !seen[c.name] {
				seen[c.name] = true
				add("ms", "lower", "harness.run_p50_ms."+c.name)
			}
		}
	}
	add("ms", "lower", "harness.uni_ms")
	add("ratio", "lower", "harness.build_frac")
	add("ms", "lower", "harness.teardown_ms", "harness.cold_round_ms", "tmk.new_ms")
	add("ratio", "lower", "tmk.overhead_frac")
	add("count", "lower", "tmk.diff_fetches_per_op", "tmk.diffs_applied_per_op",
		"tmk.barriers_per_op", "tmk.lock_acquires_per_op", "tmk.validates_per_op",
		"tmk.pushes_per_op", "tmk.dir_redirects_per_op")
	add("KiB", "lower", "tmk.ckpt_kb_per_op")
	add("us", "lower", "tmk.fault_service_p50_us", "tmk.barrier_wait_p50_us",
		"tmk.barrier_epoch_us.sim", "tmk.barrier_epoch_us.real", "tmk.barrier_epoch_us.net")
	add("count", "lower", "tmk.barrier_epoch_allocs.net")
	add("us", "lower", "tmk.lock_handoff_us.sim", "tmk.lock_handoff_us.net")
	add("count", "lower", "adapt.updates_per_op", "adapt.promotions_per_op")
	add("ratio", "lower", "adapt.overhead_frac")
	add("us", "lower", "adapt.advance_us")
	add("count", "lower", "vm.faults_per_op", "vm.twins_per_op", "vm.diff_words_per_op")
	add("us", "lower", "vm.page_cycle_us")
	add("count", "lower", "vm.page_cycle_allocs", "sim.dispatches_per_op")
	add("ns", "lower", "sim.ns_per_dispatch", "sim.yield_ns")
	add("ms", "lower", "host.new_ms")
	add("count", "lower", "host.msgs_per_op")
	add("KiB", "lower", "host.kb_per_op")
	add("us", "lower", "host.us_per_msg")
	add("count", "lower", "host.token_acquires_per_op", "host.net_frames_per_op",
		"host.net_flushes_per_op")
	add("count", "higher", "host.frames_per_flush")
	add("ns", "lower", "host.framequeue_ns_per_frame", "wire.encode_ns", "wire.decode_ns")
	add("count", "lower", "wire.decode_allocs")
	add("B", "lower", "wire.frame_bytes")
	add("us", "lower", "svc.admit_p50_us")
	add("ms", "lower", "svc.overhead_p50_ms", "svc.overhead_p90_ms", "svc.run_p50_ms",
		"svc.job_p99_ms")
	for _, c := range svcMix().configs {
		add("ms", "lower", "svc.job_p50_ms."+c.name)
	}
	add("ratio", "lower", "svc.warm_vs_fresh_frac")
	add("count", "lower", "svc.queue_retries", "svc.rejected")
	add("ratio", "lower", "obs.trace_overhead_frac")
	add("count", "lower", "runtime.gc_cycles_per_op")
	add("ms", "lower", "runtime.gc_pause_ms_per_op")
	add("MiB", "lower", "runtime.peak_rss_mb")
	add("ratio", "lower", "bench.span_overhead_frac")
	return out
}

// specJSON renders BENCHMARK.json.
func specJSON() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	spec := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []wl          `json:"workloads"`
		EndToEnd   []e2eMetric   `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads() {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(spec); err != nil {
		panic(err) // a struct of strings and numbers always encodes
	}
	return b.String()
}
