package main

import (
	"runtime"
	"time"
)

// endToEndUnits lists the metrics an untraced run prints, with their
// units. Every workload measures every one of them (README.md gives
// each workload's definition); they must match BENCHMARK.json.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"ibd_inputs_per_s": "inputs/s",
	"status_mem_bytes": "bytes",
	"heap_live_mb":     "MiB",
	"latency_p50_ms":   "ms",
	"throughput_per_s": "1/s",
}

// perLayerUnits lists the metrics a traced run prints. A layer that
// does no work on a workload reports 0 there.
var perLayerUnits = map[string]string{
	"latency_p90_ms":                 "ms",
	"chainstore.read_us_per_block":   "us",
	"chainstore.append_us_per_block": "us",
	"ingest.decode_ns_per_input":     "ns",
	"core.connect_ns_per_input":      "ns",
	"core.ev_ns_per_input":           "ns",
	"core.sv_ns_per_input":           "ns",
	"core.uv_ns_per_input":           "ns",
	"core.other_ns_per_input":        "ns",
	"core.connect_ms_per_block":      "ms",
	"ibd.uncovered_ratio":            "ratio",
	"statusdb.vectors":               "count",
	"statusdb.unspent":               "count",
	"statusdb.dense_bytes":           "bytes",
	"admission.submit_us_p50":        "us",
	"admission.mean_batch_txs":       "count",
	"p2p.bytes_per_tx":               "bytes",
	"p2p.submit_local_ms":            "ms",
	"p2p.bytes_per_block":            "bytes",
	"path.tx_ack_p50_ms":             "ms",
	"path.tx_ack_p90_ms":             "ms",
	"path.block_prop_p50_ms":         "ms",
	"path.block_prop_p90_ms":         "ms",
	"relay.reconstructed_ratio":      "ratio",
	"relay.txns_requested_per_block": "count",
	"relay.fallbacks":                "count",
	"vcache.hit_ratio":               "ratio",
	"mempool.template_ms":            "ms",
	"light.verify_ms_per_block":      "ms",
	"light.push_to_verify_ms":        "ms",
	"light.match_us_per_block":       "us",
	"light.full_block_downloads":     "count",
	"loadgen.late_p99_ms":            "ms",
	"go.gc_cycles":                   "count",
	"go.gc_pause_ms":                 "ms",
	"trace.overhead_ratio":           "ratio",
}

// zeroLayers records 0 for every per-layer metric, so each workload
// overwrites only the layers it exercises.
func zeroLayers(o *outcome) {
	for name := range perLayerUnits {
		o.Metrics[name] = 0
	}
}

// gcMark is a point on the garbage collector's counters.
type gcMark struct {
	cycles uint32
	pause  uint64
}

func readGC() gcMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcMark{ms.NumGC, ms.PauseTotalNs}
}

// recordGC stores the collections and total pause since from.
func recordGC(o *outcome, from gcMark) {
	now := readGC()
	o.Metrics["go.gc_cycles"] = float64(now.cycles - from.cycles)
	o.Metrics["go.gc_pause_ms"] = float64(now.pause-from.pause) / 1e6
}

// heapLiveMB forces collections and returns the heap in use, in MiB.
// The second collection drops what the first only moved into the
// sync.Pool victim caches, so pooled scratch does not count as live.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perUnit divides, reporting 0 when nothing was counted.
func perUnit(total, n float64) float64 {
	if n == 0 {
		return 0
	}
	return total / n
}
