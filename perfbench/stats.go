package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before
// the benchmark reports it: a tail read from fewer is one outlier.
const minBeyond = 10

// tailCandidates are the percentiles a Summary may report as its tail,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// Summary is a latency distribution reduced to the figures the
// benchmark reports: the median, p90, and the highest percentile the
// sample supports, each with the sample count.
type Summary struct {
	N        int     `json:"n"`
	P50      float64 `json:"p50"`
	P90      float64 `json:"p90"`
	TailPct  float64 `json:"tail_pct"` // 0 when no candidate has minBeyond samples above it
	Tail     float64 `json:"tail"`
	P90Valid bool    `json:"p90_valid"` // p90 has at least minBeyond samples above it
}

// Summarize sorts samples in place and summarizes them.
func Summarize(samples []float64) Summary {
	sort.Float64s(samples)
	s := Summary{N: len(samples)}
	if len(samples) == 0 {
		return s
	}
	s.P50 = Percentile(samples, 50)
	s.P90 = Percentile(samples, 90)
	s.P90Valid = Beyond(len(samples), 90) >= minBeyond
	for _, p := range tailCandidates {
		if Beyond(len(samples), p) >= minBeyond {
			s.TailPct, s.Tail = p, Percentile(samples, p)
			break
		}
	}
	return s
}

// rank is the 1-based nearest-rank index of percentile p among n
// samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n)/100 - 1e-9)) // tolerate p*n/100 rounding up
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// Percentile returns the nearest-rank percentile p (0-100] of sorted,
// which must be non-empty and ascending.
func Percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// Beyond returns how many of n samples lie above the nearest-rank
// percentile p.
func Beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// Median returns the median of xs (the mean of the middle two for an
// even count) without modifying xs. It returns 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// replaySegments is how many equal runs of blocks each replay of a
// chain is cut into.
const replaySegments = 10

// segTimes collects repeated replays of one chain, each cut into the
// same replaySegments runs of blocks, and reads their rates robustly
// across replays: each segment's wall is the median over the replays,
// and a rate is the whole chain's count over the sum of those walls. A
// burst of stalls in one replay then moves nothing, while every
// segment — the heavy late blocks most of all — keeps its weight.
type segTimes struct {
	inputs []int       // per segment
	blocks []int       // per segment
	walls  [][]float64 // per segment, one wall (s) per replay
}

// add records one replay from its per-block inputs and walls (ms).
func (s *segTimes) add(inputs []int, wallMs []float64) {
	n := replaySegments
	if s.walls == nil {
		s.inputs, s.blocks, s.walls = make([]int, n), make([]int, n), make([][]float64, n)
		for k := 0; k < n; k++ {
			lo, hi := k*len(inputs)/n, (k+1)*len(inputs)/n
			s.blocks[k] = hi - lo
			for i := lo; i < hi; i++ {
				s.inputs[k] += inputs[i]
			}
		}
	}
	for k := 0; k < n; k++ {
		lo, hi := k*len(wallMs)/n, (k+1)*len(wallMs)/n
		var wall float64
		for i := lo; i < hi; i++ {
			wall += wallMs[i] / 1e3
		}
		s.walls[k] = append(s.walls[k], wall)
	}
}

// rates returns inputs and blocks per second over the replays added.
func (s *segTimes) rates() (inputsPerS, blocksPerS float64) {
	var wall float64
	var ins, blocks int
	for k := range s.walls {
		wall += Median(s.walls[k])
		ins += s.inputs[k]
		blocks += s.blocks[k]
	}
	return perUnit(float64(ins), wall), perUnit(float64(blocks), wall)
}
