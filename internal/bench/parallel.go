package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"

	"ebv/internal/node"
)

// AblationParallel sweeps the parallel proof-verification pipeline's
// worker count over the Fig. 16a measurement window: for each width a
// fresh EBV node replays the chain at that width and the window
// blocks' wall-clock validation time and EV/UV/SV/other split are
// reported. workers=1 is the sequential validator — the baseline the
// ratio column divides by. On a single-core machine the sweep
// degenerates to overhead measurement; the Breakdown stays wall-clock
// honest either way.
//
// Arms run interleaved for Options.Repeats rounds; results are
// written as BENCH_parallel.json into Options.ArtifactDir.
func (e *Env) AblationParallel(w io.Writer) error {
	sweep := []int{1, 2, 4, runtime.NumCPU()}
	if e.Opts.Workers > 1 {
		sweep = []int{1, e.Opts.Workers}
	}
	var arms []arm
	for _, wkrs := range dedupSorted(sweep) {
		arms = append(arms, e.windowArm(fmt.Sprintf("workers=%d", wkrs), false,
			func(c *node.Config) { c.ParallelValidation = wkrs }))
	}
	_, err := e.measure(w, report{
		id:    "ablation-parallel",
		title: "Ablation: EBV window validation vs parallel pipeline workers",
		unit:  "ns",
		base:  "workers=1",
		cols:  []string{"ev_ns", "uv_ns", "sv_ns", "other_ns"},
	}, arms)
	return err
}

// dedupSorted sorts and deduplicates a small int slice in place.
func dedupSorted(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
