package bench

import (
	"fmt"
	"io"
	"runtime"

	"ebv/internal/node"
)

// AblationIBDPipe sweeps the cross-block IBD pipeline: a fresh EBV
// node replays the full bench chain at each configuration and the
// whole run's wall clock is the measurement. Two baselines anchor the
// sweep — sequential replay (workers=1, no pipeline) and the per-block
// parallel pipeline alone (workers=W, no cross-block overlap) — then
// depths {1, 2, 4, 8} run at one and at W workers. Depth 1 isolates
// the overlap of a single preverified block with the commit ahead of
// it; deeper settings only add slack for uneven block sizes. Every
// run's final unspent count must match the generator's ground truth.
//
// Arms run interleaved for Options.Repeats rounds; results are
// written as BENCH_ibdpipe.json into Options.ArtifactDir.
func (e *Env) AblationIBDPipe(w io.Writer) error {
	wide := e.Opts.Workers
	if wide <= 1 {
		wide = min(runtime.NumCPU(), 4)
	}
	ibd := func(workers, depth int) func() (reading, error) {
		return func() (reading, error) {
			n, done, err := e.freshEBVNode(func(c *node.Config) {
				c.ParallelValidation = workers
				c.PipelineDepth = depth
			})
			if err != nil {
				return reading{}, err
			}
			defer done()
			res, err := node.RunIBDEBV(e.EBVChain, n, 0, nil)
			if err != nil {
				return reading{}, err
			}
			if err := e.statusDBSanity(n.Status); err != nil {
				return reading{}, fmt.Errorf("pipeline state diverged: %w", err)
			}
			return reading{value: float64(res.Wall)}, nil
		}
	}
	arms := []arm{
		{"sequential", ibd(1, 0)},
		{"per-block-parallel", ibd(wide, 0)},
	}
	for _, d := range []int{1, 2, 4, 8} {
		for _, wk := range dedupSorted([]int{1, wide}) {
			arms = append(arms, arm{fmt.Sprintf("pipelined d=%d w=%d", d, wk), ibd(wk, d)})
		}
	}
	logf(w, "ablation-ibdpipe: full-chain IBD, %d blocks, per-block-parallel at w=%d", e.Opts.Blocks, wide)
	_, err := e.measure(w, report{
		id:    "ablation-ibdpipe",
		title: "Ablation: cross-block pipelined IBD vs depth and workers",
		unit:  "ns",
		base:  "sequential",
	}, arms)
	return err
}
