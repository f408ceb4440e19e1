package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef names one metric of the ledger. BENCHMARK.json lists the same
// names, units and bounds; cells_test.go keeps the two in step.
type metricDef struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees; all lower-is-better. The
// bounds are derived in README.md from three sets of runs on the parent
// commit. Three metrics the issue lists are not here: fail_ratio is reported
// through the result line's attempted and failed counts, because an
// end-to-end metric must never read 0; host_cpu_s and peak_rss_mb repeat to
// worse than 0.10 and are the per-layer rows bench.host_cpu_s and
// bench.peak_rss_mb.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"jct_min", "paper-min", "lower", 0.10},
	{"alloc_mb", "MB", "lower", 0.10},
}

func lower(unit string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{name: n, unit: unit, better: "lower"}
	}
	return out
}

func higher(unit string, names ...string) []metricDef {
	out := lower(unit, names...)
	for i := range out {
		out[i].better = "higher"
	}
	return out
}

// perLayer lists the metrics of single layers, grouped by layer.
var perLayer = concat(
	// data, exec, core: micro-probes on the workload's own records and plan.
	lower("ns/rec", "data.encode_ns_per_rec", "data.decode_ns_per_rec", "data.partition_ns_per_rec"),
	lower("1/rec", "data.encode_allocs_per_rec"),
	lower("ns/rec", "exec.fragment_ns_per_rec", "exec.acc_merge_ns_per_rec"),
	lower("us", "core.compile_us"),
	lower("count", "core.plan_stages", "core.plan_tasks"),
	// simnet, storage: micro-probes at the cell's bandwidth and latency.
	lower("us", "simnet.dial_us", "simnet.rtt_us"),
	higher("ratio", "simnet.xfer_eff"),
	lower("us", "storage.cas_put_us", "storage.cas_get_us", "storage.cas_resolve_us",
		"storage.stable_put_us", "storage.stable_get_us"),
	lower("count", "storage.cas_chunks"),
	lower("MB", "storage.cas_used_mb"),
	// Counters of the returned metrics.Snapshot.
	lower("count", "cluster.evictions", "cluster.containers_up",
		"runtime.tasks_original", "runtime.tasks_launched"),
	lower("ratio", "runtime.relaunch_ratio"),
	lower("MB", "runtime.bytes_pushed_mb", "runtime.bytes_fetched_mb"),
	lower("count", "runtime.conn_dials"),
	higher("ratio", "runtime.conn_reuse_ratio"),
	lower("count", "runtime.rpc_retries"),
	lower("ms", "runtime.rpc_backoff_wait_ms"),
	lower("count", "runtime.rpc_deadline_hits", "runtime.breaker_opens",
		"runtime.heartbeats_missed", "runtime.nodes_declared_dead", "runtime.sched_rounds"),
	lower("1/round", "runtime.sched_scanned_per_round"),
	higher("count", "runtime.slot_index_hits"),
	lower("count", "runtime.commit_probes"),
	higher("ratio", "runtime.commit_hit_ratio"),
	higher("count", "runtime.tasks_skipped"),
	lower("count", "runtime.commit_writes"),
	lower("MB", "runtime.cas_served_mb", "runtime.cas_written_mb"),
	higher("ratio", "recache.hit_ratio"),
	lower("count", "sparklike.tasks_original"),
	lower("ratio", "sparklike.relaunch_ratio"),
	lower("MB", "sparklike.bytes_fetched_mb", "sparklike.bytes_checkpointed_mb"),
	// analyze.Report of the traced reps: ms on the blocking path.
	lower("ms", "analyze.cp_compute_ms", "analyze.cp_push_ms", "analyze.cp_fetch_ms",
		"analyze.cp_sched_ms", "analyze.cp_relaunch_ms", "analyze.cp_job_setup_ms",
		"analyze.cp_task_queue_ms", "analyze.cp_receiver_pull_ms", "analyze.cp_receiver_merge_ms"),
	lower("ratio", "analyze.cp_tiling_err"),
	lower("ms", "analyze.waste_compute_ms"),
	lower("MB", "analyze.waste_pushed_mb"),
	lower("ms", "analyze.analyze_ms"),
	lower("count", "obs.events_per_job"),
	lower("ratio", "obs.trace_jct_overhead", "obs.trace_cpu_overhead"),
	// The benchmark's own spans and runtime counters around each rep.
	lower("ms", "bench.cluster_new_ms", "bench.verify_ms"),
	lower("s", "bench.host_cpu_s"),
	lower("paper-min", "bench.jct_raw_min"),
	lower("ms", "bench.host_ref_ms"),
	lower("MB", "bench.peak_rss_mb"),
	lower("count", "bench.gc_cycles"),
	lower("ms", "bench.gc_pause_ms"),
	lower("k", "bench.mallocs_k"),
)

func concat(groups ...[]metricDef) []metricDef {
	var out []metricDef
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// samples collects the values of each metric over the reps of one run. A
// metric that does not apply to a workload gets no samples.
type samples map[string][]float64

func (s samples) add(name string, v ...float64) { s[name] = append(s[name], v...) }

// stat summarises one metric's samples.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quantile interpolates linearly between order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(vs []float64) float64 {
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	return quantile(sorted, 0.5)
}

// summarize reduces the samples of every listed metric that has any.
func (s samples) summarize(defs []metricDef) map[string]stat {
	out := make(map[string]stat)
	for _, d := range defs {
		vs := s[d.name]
		if len(vs) == 0 {
			continue
		}
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		out[d.name] = stat{Unit: d.unit, Median: quantile(sorted, 0.5),
			Q1: quantile(sorted, 0.25), Q3: quantile(sorted, 0.75), N: len(sorted)}
	}
	return out
}

// printStats prints one row per metric that has samples, in ledger order.
func printStats(w io.Writer, workload string, defs []metricDef, stats map[string]stat) {
	for _, d := range defs {
		st, ok := stats[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-18s %-32s %-9s median %-12.6g q1 %-12.6g q3 %-12.6g n %d\n",
			workload, d.name, d.unit, st.Median, st.Q1, st.Q3, st.N)
	}
}
