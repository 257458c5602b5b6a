package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metric is one measured value as the driver reads it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// Workload names are fixed; later issues cite them.
const (
	warmPoint  = "warm_point"
	warmWide   = "warm_wide"
	aclCold    = "acl_cold"
	churnMixed = "churn_mixed"
)

var workloadNames = []string{warmPoint, warmWide, aclCold, churnMixed}

// endToEnd is what every untraced run reports on its last line, in
// BENCHMARK.json's order: the metrics that are defined on all four
// workloads, are never zero, and repeat within their bound on the
// benchmark machine. The two times are scaled to a quiet host by the
// reference operation (calib.go). The rest of the issue's list — the
// median, the tail, the throughput, the resident-set peak,
// churn_mixed's write side, fail_share — is reported by both kinds of
// run as ungated client.* diagnostics; README.md says why each was
// moved.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"read_p01_norm_us", "us"},
	{"resp_bytes_per_read", "B"},
	{"rss_settled_mb", "MB"},
}

// layerMetric is one per-layer metric of the traced pass with the
// prediction the choosing-metrics guide asks for before measuring:
// which end-to-end metric it should move, and on which workload.
type layerMetric struct {
	name, unit string
	moves, on  string
}

// perLayer is what every traced run reports on its last line, in
// BENCHMARK.json's order. Layer names are the repository's packages;
// client.* are the harness's own observations (ungated diagnostics).
var perLayer = []layerMetric{
	{"parser.parse_us", "us", "read_p01_norm_us", warmPoint},
	{"guard.open_us", "us", "read_p01_norm_us", warmPoint},
	{"cview.analyze_us", "us", "read_p01_norm_us", warmPoint},
	{"core.closure_lookup_us", "us", "read_p01_norm_us", warmPoint},
	{"metrics.observe_us", "us", "read_p01_norm_us", warmPoint},
	{"core.meta_us", "us", "read_p01_norm_us", aclCold},
	{"core.mask_apply_us", "us", "read_p01_norm_us", aclCold},
	{"core.closure_hit_ratio", "ratio", "client.read_qps", aclCold},
	{"core.closure_refresh_ratio", "ratio", "client.read_p99_us", churnMixed},
	{"core.closure_invalidations", "count", "client.read_p99_us", churnMixed},
	{"core.maskcache_hit_ratio", "ratio", "client.read_qps", aclCold},
	{"core.cells_delivered_per_read", "count", "none (invariant)", "all"},
	{"core.cells_withheld_per_read", "count", "none (invariant)", "all"},
	{"algebra.eval_us", "us", "read_p01_norm_us", aclCold},
	{"algebra.rows_examined_per_row", "ratio", "read_p01_norm_us", aclCold},
	{"relation.index_build_us", "us", "client.read_p99_us", churnMixed},
	{"engine.exec_us", "us", "read_p01_norm_us", "all"},
	{"engine.unattributed_us", "us", "none (staging check)", "all"},
	{"engine.insert_us", "us", "client.write_p50_us", churnMixed},
	{"authdb.convert_us", "us", "read_p01_norm_us", warmWide},
	{"authdb.render_us", "us", "read_p01_norm_us", warmWide},
	{"wire.encode_us", "us", "read_p01_norm_us", warmWide},
	{"wire.decode_us", "us", "read_p01_norm_us", warmWide},
	{"wire.resp_bytes", "B", "resp_bytes_per_read", warmWide},
	{"net.rtt_us", "us", "read_p01_norm_us", warmPoint},
	{"server.overhead_us", "us", "read_p01_norm_us", warmPoint},
	{"client.connect_us", "us", "client.read_qps", aclCold},
	{"wal.appends_per_write", "count", "client.write_p50_us", churnMixed},
	{"wal.bytes_per_write", "B", "client.write_p50_us", churnMixed},
	{"storage.checkpoint_ms", "ms", "client.write_p99_us", churnMixed},
	{"storage.dirty_pages_per_checkpoint", "count", "client.disk_amp", churnMixed},
	{"storage.page_writes_per_write", "count", "client.disk_amp", churnMixed},
	{"storage.page_cache_hit_ratio", "ratio", "client.read_p99_us", churnMixed},
	{"storage.evictions", "count", "client.write_p99_us", churnMixed},
	{"runtime.allocs_per_read", "count", "client.read_p99_us", "all"},
	{"runtime.alloc_bytes_per_read", "B", "client.rss_peak_mb", "all"},
	{"runtime.gc_pause_ms", "ms", "client.read_p99_us", "all"},
	{"trace.overhead_us", "us", "none (harness)", "all"},
	{"client.exec_p50_us", "us", "read_p01_norm_us", "all"},
	{"client.ref_p01_us", "us", "none (calibration)", "all"},
	{"client.read_p01_us", "us", "read_p01_norm_us", "all"},
	{"client.read_p50_us", "us", "client.read_p50_us", "all"},
	{"client.read_p99_us", "us", "client.read_p99_us", "all"},
	{"client.read_qps", "1/s", "client.read_qps", "all"},
	{"client.write_p50_us", "us", "client.write_p50_us", churnMixed},
	{"client.write_p99_us", "us", "client.write_p99_us", churnMixed},
	{"client.write_late_max_us", "us", "client.write_p99_us", churnMixed},
	{"client.reauth_p50_us", "us", "client.reauth_p50_us", churnMixed},
	{"client.disk_amp", "ratio", "client.disk_amp", churnMixed},
	{"client.rss_peak_mb", "MB", "client.rss_peak_mb", "all"},
	{"client.fail_share", "ratio", "none (must stay 0)", "all"},
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// gate is how `aa` and `compare` judge one end-to-end metric.
type gate struct {
	bound       float64
	lowerBetter bool
}

// gates indexes the committed end-to-end metrics by name.
func (bf *benchmarkFile) gates() map[string]gate {
	out := make(map[string]gate, len(bf.EndToEnd))
	for _, m := range bf.EndToEnd {
		out[m.Name] = gate{bound: m.Bound, lowerBetter: m.Better == "lower"}
	}
	return out
}
