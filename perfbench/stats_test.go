package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: Summarize must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	s := Summarize(xs)
	if s.P50 != 50 || s.P90 != 90 {
		t.Fatalf("p50=%v p90=%v, want 50 and 90", s.P50, s.P90)
	}
	if got := Percentile([]float64{7}, 99.9); got != 7 {
		t.Fatalf("single-sample percentile = %v", got)
	}
}

func TestSummaryTailNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n        int
		tailPct  float64
		p90Valid bool
	}{
		{5, 0, false},    // nothing has ten samples above it
		{20, 50, false},  // p50 has 10 above; p75 only 5
		{99, 75, false},  // p90 has 9 above
		{100, 90, true},  // p90 has exactly 10 above
		{1000, 99, true}, // p99 has 10 above; p99.9 has 1
		{10000, 99.9, true},
	}
	for _, c := range cases {
		s := Summarize(seq(c.n))
		if s.N != c.n || s.TailPct != c.tailPct || s.P90Valid != c.p90Valid {
			t.Errorf("n=%d: got N=%d tail p%v p90valid=%v, want tail p%v p90valid=%v",
				c.n, s.N, s.TailPct, s.P90Valid, c.tailPct, c.p90Valid)
		}
		if s.TailPct > 0 && Beyond(c.n, s.TailPct) < minBeyond {
			t.Errorf("n=%d: tail p%v has only %d samples beyond", c.n, s.TailPct, Beyond(c.n, s.TailPct))
		}
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median %v", m)
	}
	xs := []float64{4, 1, 3, 2}
	if m := Median(xs); m != 2.5 {
		t.Fatalf("even median %v", m)
	}
	if xs[0] != 4 {
		t.Fatal("Median modified its input")
	}
}

// A stall in one replay moves nothing; every segment keeps its weight,
// however few blocks or inputs it holds.
func TestSegTimesMedianPerSegment(t *testing.T) {
	inputs := make([]int, 20)
	wall := make([]float64, 20)
	for i := range inputs {
		inputs[i] = i / 2 * 10         // segment k holds 20k inputs in two blocks
		wall[i] = float64(1+i/2) * 100 // and takes (k+1)/5 s
	}
	var st segTimes
	for r := 0; r < 3; r++ {
		w := append([]float64(nil), wall...)
		if r == 1 {
			w[19] *= 50 // a stall in the heaviest segment of one replay
		}
		st.add(inputs, w)
	}
	ins, blocks := st.rates()
	// 900 inputs and 20 blocks over 0.2+0.4+...+2.0 = 11 s.
	if math.Abs(ins-900.0/11) > 1e-9 || math.Abs(blocks-20.0/11) > 1e-9 {
		t.Fatalf("rates = %v, %v; want %v, %v", ins, blocks, 900.0/11, 20.0/11)
	}
}
