package main

import (
	"fmt"
	"math"
	"regexp"
)

// metric describes one reported number. The end-to-end table and the
// per-layer table are mirrored in BENCHMARK.json (bounds live only
// there); TestBenchmarkJSONMatchesTables keeps the two in step.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees, printed by an
// untraced run (--trace 0) of every workload. Each one is measured on
// every workload; README.md gives the definition per workload.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "solve_s", Unit: "s", Better: "lower"},
	{Name: "solve_s_1t", Unit: "s", Better: "lower"},
	{Name: "objective", Unit: "score", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "tail_ms", Unit: "ms", Better: "lower"},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher"},
}

// perLayer are the single-layer metrics printed by a traced run
// (--trace 1). A workload that does not run a layer reports 0 for it.
// README.md maps each to the end-to-end metric and workload it should
// move.
var perLayer = []metric{
	{"core.bp.boundF_ms", "ms", "lower"},
	{"core.bp.computeD_ms", "ms", "lower"},
	{"core.bp.othermax_ms", "ms", "lower"},
	{"core.bp.updateS_ms", "ms", "lower"},
	{"core.bp.damping_ms", "ms", "lower"},
	{"core.bp.match_ms", "ms", "lower"},
	{"core.bp.boundF_ms_1t", "ms", "lower"},
	{"core.bp.computeD_ms_1t", "ms", "lower"},
	{"core.bp.othermax_ms_1t", "ms", "lower"},
	{"core.bp.updateS_ms_1t", "ms", "lower"},
	{"core.bp.match_ms_1t", "ms", "lower"},
	{"core.mr.rowmatch_ms", "ms", "lower"},
	{"core.mr.match_ms", "ms", "lower"},
	{"core.mr.updateU_ms", "ms", "lower"},
	{"core.mr.objective_ms", "ms", "lower"},
	{"core.mr.daxpy_ms", "ms", "lower"},
	{"core.unstepped_ms", "ms", "lower"},
	{"core.bp.bytes_per_iter", "bytes", "lower"},
	{"core.bp.boundF_gbs", "GB/s", "higher"},
	{"core.bp.updateS_gbs", "GB/s", "higher"},
	{"core.bp.computeD_gbs", "GB/s", "higher"},
	{"parallel.speedup", "x", "higher"},
	{"go.allocs_per_iter", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"problemio.parse_ms", "ms", "lower"},
	{"core.build_s_ms", "ms", "lower"},
	{"cluster.key_ms", "ms", "lower"},
	{"cache.keyfor_us", "us", "lower"},
	{"problemio.write_ms", "ms", "lower"},
	{"server.store_write_ms", "ms", "lower"},
	{"problemio.checkpoint_write_ms", "ms", "lower"},
	{"server.submit_hit_ms", "ms", "lower"},
	{"server.submit_miss_ms", "ms", "lower"},
	{"server.queue_wait_p50_ms", "ms", "lower"},
	{"server.queue_wait_tail_ms", "ms", "lower"},
	{"server.run_ms", "ms", "lower"},
	{"cache.hit_frac", "ratio", "higher"},
	{"server.coalesced_frac", "ratio", "higher"},
	{"cluster.peer_fills", "count", "higher"},
	{"server.rejected", "count", "lower"},
	{"server.failed", "count", "lower"},
	{"serve.hit_p50_ms", "ms", "lower"},
	{"serve.miss_p50_ms", "ms", "lower"},
	{"serve.fail_frac", "ratio", "lower"},
	{"core.thread_mismatch", "count", "lower"},
	{"bench.trace_overhead", "ratio", "lower"},
	{"bench.gen_late_ms", "ms", "lower"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkTable validates names, units and directions and that no name
// repeats across both tables.
func checkTable(tables ...[]metric) error {
	seen := map[string]bool{}
	for _, t := range tables {
		for _, m := range t {
			if !nameRE.MatchString(m.Name) {
				return fmt.Errorf("metric name %q breaks the name grammar", m.Name)
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("metric %s: unit %q breaks the unit grammar", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("metric %s: direction %q", m.Name, m.Better)
			}
			if seen[m.Name] {
				return fmt.Errorf("metric %s listed twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	return nil
}

// value is one metric as printed on the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render selects table's metrics from vals. Every end-to-end metric
// must be present and every value finite: a missing or NaN number is
// a benchmark bug, reported as the error. The map holds the metrics
// that are valid either way, so a failed run still prints them.
func render(table []metric, vals map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(table))
	var first error
	for _, m := range table {
		v, ok := vals[m.Name]
		switch {
		case !ok && isEndToEnd(m.Name):
			if first == nil {
				first = fmt.Errorf("metric %s was not measured", m.Name)
			}
			continue
		case math.IsNaN(v) || math.IsInf(v, 0):
			if first == nil {
				first = fmt.Errorf("metric %s is %v", m.Name, v)
			}
			continue
		}
		out[m.Name] = value{Value: v, Unit: m.Unit}
	}
	return out, first
}

func isEndToEnd(name string) bool {
	for _, m := range endToEnd {
		if m.Name == name {
			return true
		}
	}
	return false
}
