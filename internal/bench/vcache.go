package bench

import (
	"fmt"
	"io"

	"ebv/internal/node"
)

// AblationCache sweeps the verified-proof cache over the Fig. 16a
// measurement window: for each cache size a fresh EBV node replays the
// chain and the window blocks' validation time is read twice — cold
// (the cache sees every proof for the first time inside ConnectBlock)
// and mempool-warmed (every window transaction is first admitted
// through ValidateTx, the relay path, so block validation finds its
// proofs already verified). Warming time is excluded, and the warming
// pass uses a separate decode of each block so hash memoization cannot
// leak warmth into the measured run. "off" is the uncached baseline
// the ratio column divides by.
//
// Arms run interleaved for Options.Repeats rounds; results are
// written as BENCH_cache.json into Options.ArtifactDir.
func (e *Env) AblationCache(w io.Writer) error {
	arms := []arm{e.windowArm("off", false, func(c *node.Config) { c.VerifyCacheSize = 0 })}
	for _, size := range []int{4096, 1 << 16} {
		for _, mode := range []string{"cold", "warm"} {
			arms = append(arms, e.windowArm(fmt.Sprintf("%d/%s", size, mode), mode == "warm",
				func(c *node.Config) { c.VerifyCacheSize = size }))
		}
	}
	_, err := e.measure(w, report{
		id:    "ablation-cache",
		title: "Ablation: EBV window validation vs verified-proof cache (cold vs mempool-warmed)",
		unit:  "ns",
		base:  "off",
		cols:  []string{"ev_ns", "sv_ns", "cache_hits", "cache_misses", "evictions"},
	}, arms)
	return err
}
