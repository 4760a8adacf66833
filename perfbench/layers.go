package main

import (
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/gate"
)

// layerUnits is every per-layer metric the traced run reports, with its
// unit. A metric a workload cannot measure is reported as 0 and named on
// an "absent" line with the reason.
var layerUnits = map[string]string{
	"plasma.build_s":              "s",
	"core.selftest_s":             "s",
	"fault.universe_s":            "s",
	"plasma.capture_s":            "s",
	"fault.plan_s":                "s",
	"fault.simulate_s":            "s",
	"fault.passes":                "count",
	"fault.sim_cycles":            "count",
	"fault.fast_forwarded_cycles": "count",
	"fault.fused_windows":         "count",
	"fault.skipped_faults":        "count",
	"fault.lanes_dropped":         "count",
	"fault.pass_exit_last_decile": "ratio",
	"fault.live_lane_fraction":    "ratio",
	"fault.pass_s_max":            "s",
	"fault.pass_s_p50":            "s",
	"fault.parallel_efficiency":   "ratio",
	"gate.evals_per_cycle":        "evals/cycle",
	"gate.events":                 "count",
	"gate.batched_evals":          "count",
	"gate.simd_runs":              "count",
	"gate.generic_runs":           "count",
	"gate.scalar_evals":           "count",
	"gate.uniform_hits":           "count",
	"gate.hook_diffs":             "count",
	"gate.sweep_share":            "ratio",
	"gate.kernel_share":           "ratio",
	"gate.patch_share":            "ratio",
	"plasma.golden_stored_bytes":  "bytes",
	"serve.golden_hit_ratio":      "ratio",
	"serve.plan_hit_ratio":        "ratio",
	"serve.warm_grade_ratio":      "ratio",
	"serve.cold_sims":             "count",
	"serve.grade_ms_mean":         "ms",
	"serve.wire_ms_mean":          "ms",
	"shard.ship_bytes":            "bytes",
	"shard.ship_s":                "s",
	"shard.partition_s":           "s",
	"shard.merge_s":               "s",
	"shard.redispatched":          "count",
	"shard.host_queue_s":          "s",
	"shard.host_sim_s":            "s",
	"shard.host_imbalance":        "ratio",
	"bench.trace_overhead_s":      "s",
	"bench.uncovered_s":           "s",
	"shard.abandoned_drain_s":     "s",
	"plasma.self_s":               "s",
	"core.self_s":                 "s",
	"fault.self_s":                "s",
	"serve.self_s":                "s",
	"shard.self_s":                "s",
	"bench.self_s":                "s",
}

// setLayer sets a per-layer metric with its catalogued unit.
func (o *outcome) setLayer(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("perfbench: uncatalogued layer metric " + name)
	}
	o.set(name, v, unit)
}

// absent reports the named per-layer metrics as 0 with the reason.
func (o *outcome) absent(reason string, names ...string) {
	for _, n := range names {
		o.setLayer(n, 0)
	}
	o.note("absent: %s (%s)", strings.Join(names, ", "), reason)
}

// setSimStats reports the fault and gate work counters of summed SimStats.
func (o *outcome) setSimStats(st *fault.SimStats) {
	o.setLayer("fault.passes", float64(st.Passes))
	o.setLayer("fault.sim_cycles", float64(st.SimCycles))
	o.setLayer("fault.fast_forwarded_cycles", float64(st.FastForwarded))
	o.setLayer("fault.fused_windows", float64(st.FusedWindows))
	o.setLayer("fault.skipped_faults", float64(st.SkippedFaults))
	o.setLayer("fault.lanes_dropped", float64(st.LanesDropped))
	exit := 0.0
	if st.Passes > 0 {
		exit = float64(st.ExitHist[9]) / float64(st.Passes)
	}
	o.setLayer("fault.pass_exit_last_decile", exit)
	o.setLayer("gate.evals_per_cycle", st.EvalsPerCycle())
	o.setLayer("gate.events", float64(st.Events))
	o.setLayer("gate.batched_evals", float64(st.BatchedGateEvals))
	o.setLayer("gate.simd_runs", float64(st.SIMDKernelRuns))
	o.setLayer("gate.generic_runs", float64(st.GenericKernelRuns))
	o.setLayer("gate.scalar_evals", float64(st.ScalarKernelEvals))
	o.setLayer("gate.uniform_hits", float64(st.UniformFastPathHits))
	o.setLayer("gate.hook_diffs", float64(st.HookDiffs))
}

// setGateShares reports the CPU-profile shares of the gate layer.
func (o *outcome) setGateShares(prof []byte) error {
	shares, cpu, err := gateShares(prof)
	if err != nil {
		return err
	}
	o.setLayer("gate.sweep_share", shares["sweep"])
	o.setLayer("gate.kernel_share", shares["kernel"])
	o.setLayer("gate.patch_share", shares["patch"])
	o.note("gate shares over %.2f CPU-seconds of profile: sweep %.3f, kernel %.3f, patch %.3f (simd kernels: %s)",
		cpu, shares["sweep"], shares["kernel"], shares["patch"], gate.SIMDKernelName())
	return nil
}

// sumSpans adds up the durations of the spans with the given name.
func sumSpans(tr *tracer, name string) float64 {
	total := 0.0
	for _, s := range tr.named(name) {
		total += float64(s.End-s.Start) / 1e9
	}
	return total
}

// missingLayers lists catalogued per-layer metrics an outcome lacks.
func missingLayers(o *outcome) []string {
	var out []string
	for n := range layerUnits {
		if _, ok := o.metrics[n]; !ok {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
