// Command perfbench is the repository's benchmark of record. It runs
// one seeded workload against in-process EBV nodes — configured as the
// shipped commands configure them — checks the outputs, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics)
// as one JSON object on the last line of standard output.
//
//	go build -o perfbench . && ./perfbench -workload ibd -seed 1 -seconds 10 -trace 0
//
// See README.md for the workloads, the metrics and what each layer
// metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"ebv/internal/sig"
)

// params is one run's configuration.
type params struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Work     string // scratch directory for chains and node state
}

// outcome is what a workload reports.
type outcome struct {
	Attempted int
	Failed    int
	Problems  []string           // failed output checks; empty when correct
	Metrics   map[string]float64 // by metric name, in the units BENCHMARK.json gives
	Meta      map[string]any     // sizing, rates and sample counts
}

func (o *outcome) problem(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

func newOutcome() *outcome {
	return &outcome{Metrics: make(map[string]float64), Meta: make(map[string]any)}
}

// workloads maps each -workload name to its runner.
var workloads = map[string]func(params) (*outcome, error){
	"ibd":   runIBD,
	"admit": runAdmit,
	"e2e":   runE2E,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: ibd, admit or e2e")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 10, "how long the measured phase runs")
		trace    = flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics; 0 prints the end-to-end metrics")
		work     = flag.String("work", ".bench_build/work", "scratch directory for chains and node state")
		commit   = flag.String("commit", "unknown", "source revision, recorded in the run metadata")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload ibd|admit|e2e, -seconds > 0 and -trace 0|1\n")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(mustMkdir(*work), *workload+"-")
	if err != nil {
		fail(err)
	}
	p := params{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Work: dir}
	out, err := run(p)
	if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fail(err)
	}

	meta := map[string]any{
		"workload":   p.Workload,
		"seed":       p.Seed,
		"seconds":    p.Seconds,
		"trace":      p.Trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     *commit,
		"simsig":     sig.SimSig{}.Name(),
		"problems":   out.Problems,
		"max_rss_mb": maxRSSMB(),
	}
	if out.Attempted > 0 {
		meta["fail_ratio"] = float64(out.Failed) / float64(out.Attempted)
	}
	for k, v := range out.Meta {
		meta[k] = v
	}
	units := endToEndUnits
	if p.Trace {
		units = perLayerUnits
	}
	metrics := make(map[string]map[string]any, len(units))
	for name, unit := range units {
		v, ok := out.Metrics[name]
		if !ok {
			fail(fmt.Errorf("workload %s did not measure %s", p.Workload, name))
		}
		metrics[name] = map[string]any{"value": v, "unit": unit}
	}
	for name := range out.Metrics {
		_, e2e := endToEndUnits[name]
		_, layer := perLayerUnits[name]
		if !e2e && !layer {
			fail(fmt.Errorf("workload %s measured %s, which is not a listed metric", p.Workload, name))
		}
	}
	for _, pr := range out.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", pr)
	}
	printJSON(map[string]any{"meta": meta})
	printJSON(map[string]any{
		"correct":   len(out.Problems) == 0,
		"attempted": max(out.Attempted, 1),
		"failed":    out.Failed,
		"metrics":   metrics,
	})
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	return dir
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// repeatSetup runs set-up reps times and reports the median wall
// time: set-up is measured so that work moved into it shows, and one
// generation is too noisy to compare. After each set-up, phase (when
// not nil) runs on what it built, untimed, so a workload can repeat
// its measured phase on identical state. Every result but the last is
// then released; the last is returned.
func repeatSetup[T any](reps int, setup func(rep int) (T, error), phase func(rep int, v T) error, release func(T)) (T, float64, error) {
	var (
		v     T
		walls []float64
	)
	for r := 0; r < reps; r++ {
		start := time.Now()
		var err error
		if v, err = setup(r); err != nil {
			var zero T
			return zero, 0, err
		}
		walls = append(walls, time.Since(start).Seconds())
		if phase != nil {
			if err := phase(r, v); err != nil {
				release(v)
				var zero T
				return zero, 0, err
			}
		}
		if r < reps-1 {
			release(v)
		}
	}
	return v, Median(walls), nil
}

// subdir returns a fresh path under the run's scratch directory.
func subdir(p params, name string) string { return filepath.Join(p.Work, name) }

// tracePath is where a traced run writes its spans: beside the
// scratch directory, which is deleted when the run ends.
func tracePath(p params) string {
	return filepath.Join(filepath.Dir(p.Work), fmt.Sprintf("trace-%s-seed%d.jsonl", p.Workload, p.Seed))
}

// maxRSSMB returns the process's peak resident set, in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
