package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// This file is the ablations' one measurement path: an arms runner
// that interleaves repetitions and summarizes each arm by median and
// interquartile range, and the one writer and schema of every
// BENCH_*.json artifact.

// arm is one configuration an ablation compares. run measures one
// repetition from scratch, so rounds are independent.
type arm struct {
	name string
	run  func() (reading, error)
}

// reading is one repetition of one arm: its value in the artifact's
// unit plus any secondary metrics, which are summarized by their
// median across repetitions.
type reading struct {
	value   float64
	metrics map[string]float64
}

// armResult is one arm's entry in an artifact.
type armResult struct {
	Arm     string             `json:"arm"`
	Median  float64            `json:"median"`
	IQR     float64            `json:"iqr"`
	Samples []float64          `json:"samples"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// artifact is the schema every BENCH_*.json shares: the experiment,
// the unit of every arm's median, IQR and samples, the repetitions
// each arm ran, the host's CPU count, and the arms in run order.
type artifact struct {
	Experiment string      `json:"experiment"`
	Unit       string      `json:"unit"`
	Rounds     int         `json:"rounds"`
	CPUs       int         `json:"cpus"`
	Arms       []armResult `json:"arms"`
}

// report describes how an ablation's arms are printed and stored.
type report struct {
	id    string   // experiment id; the artifact is BENCH_<id minus "ablation-">.json
	title string   // table title
	unit  string   // unit of the arm values
	base  string   // arm the ratio column divides by; "" prints none
	cols  []string // metrics printed as extra table columns
}

// runArms runs rounds rounds of every arm, each round visiting the
// arms in order, so a slow phase of the host taxes every arm evenly
// instead of whichever arm it landed on.
func runArms(rounds int, arms []arm) ([]armResult, error) {
	readings := make([][]reading, len(arms))
	for r := 0; r < rounds; r++ {
		for i, a := range arms {
			rd, err := a.run()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", a.name, err)
			}
			readings[i] = append(readings[i], rd)
		}
	}
	out := make([]armResult, len(arms))
	for i, a := range arms {
		out[i] = summarize(a.name, readings[i])
	}
	return out, nil
}

// measure runs arms for Options.Repeats interleaved rounds and emits
// them.
func (e *Env) measure(w io.Writer, r report, arms []arm) ([]armResult, error) {
	res, err := runArms(e.Opts.Repeats, arms)
	if err != nil {
		return nil, err
	}
	return res, e.emit(w, r, e.Opts.Repeats, res)
}

// summarize reduces an arm's readings to its artifact entry.
func summarize(name string, rs []reading) armResult {
	res := armResult{Arm: name, Samples: make([]float64, len(rs))}
	byMetric := map[string][]float64{}
	for i, r := range rs {
		res.Samples[i] = r.value
		for k, v := range r.metrics {
			byMetric[k] = append(byMetric[k], v)
		}
	}
	res.Median, res.IQR = medianIQR(res.Samples)
	if len(byMetric) > 0 {
		res.Metrics = make(map[string]float64, len(byMetric))
		for k, vs := range byMetric {
			res.Metrics[k], _ = medianIQR(vs)
		}
	}
	return res
}

// single is the artifact entry of an arm measured once.
func single(name string, value float64, metrics map[string]float64) armResult {
	return summarize(name, []reading{{value, metrics}})
}

// medianIQR returns the median and the interquartile range of xs,
// quartiles interpolated linearly between order statistics.
func medianIQR(xs []float64) (median, iqr float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return q(0.5), q(0.75) - q(0.25)
}

// emit prints arms as a table and writes them as the experiment's
// BENCH_*.json artifact into Options.ArtifactDir, creating the
// directory if needed.
func (e *Env) emit(w io.Writer, r report, rounds int, arms []armResult) error {
	header := []string{"arm", "median " + r.unit, "iqr"}
	var base float64
	if r.base != "" {
		header = append(header, "x "+r.base)
		for _, a := range arms {
			if a.Arm == r.base {
				base = a.Median
			}
		}
	}
	header = append(header, r.cols...)
	t := newTable(header...)
	for _, a := range arms {
		cells := []any{a.Arm, fmtValue(r.unit, a.Median), fmtValue(r.unit, a.IQR)}
		if r.base != "" {
			ratio := "n/a"
			if base > 0 {
				ratio = fmt.Sprintf("%.2fx", a.Median/base)
			}
			cells = append(cells, ratio)
		}
		for _, c := range r.cols {
			cells = append(cells, fmtValue(c, a.Metrics[c]))
		}
		t.row(cells...)
	}
	t.write(w, r.title)
	fmt.Fprintf(w, "%d round(s), arms interleaved; median and IQR per arm; %d CPU(s)\n", rounds, runtime.NumCPU())

	out, err := json.MarshalIndent(artifact{
		Experiment: r.id, Unit: r.unit, Rounds: rounds, CPUs: runtime.NumCPU(), Arms: arms,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(e.Opts.ArtifactDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(e.Opts.ArtifactDir, "BENCH_"+strings.TrimPrefix(r.id, "ablation-")+".json")
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}

// fmtValue renders a value by its unit or metric name: nanosecond
// quantities as durations, large or whole numbers without decimals.
func fmtValue(unit string, v float64) string {
	switch {
	case unit == "ns" || strings.HasSuffix(unit, "_ns"):
		return fmtDur(time.Duration(v))
	case v == math.Trunc(v) || math.Abs(v) >= 100:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}
