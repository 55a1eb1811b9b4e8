package bench

import (
	"fmt"
	"io"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/core"
	"ebv/internal/ingest"
	"ebv/internal/node"
	"ebv/internal/statusdb"
)

// overheadCacheSize is the verified-proof cache every arm runs with:
// large enough that the warmed window never evicts, so EV and SV are
// cache hits and the measured work is the wire-speed ingest path
// itself (decode, UV probes, status commit).
const overheadCacheSize = 1 << 16

// overheadStep processes one window block on a node — connecting it —
// and returns the arm's measured region and the connect's breakdown.
type overheadStep func(n *node.EBVNode, scr *ingest.Scratch, raw []byte) (time.Duration, *core.Breakdown, error)

// AblationOverhead isolates the warm-path ingest overheads, one step
// at a time. Every arm replays the chain prefix, then runs the
// measurement window with a mempool-warmed verified-proof cache (every
// window transaction admitted via ValidateTx first), so EV folds and
// script executions are cache hits and what remains is decode + UV +
// commit — the per-arm measured region, always excluding the
// chain-store append:
//
//	probe-only   batched UV probe over precollected spends; the
//	             irreducible cost of answering unspentness
//	uv-floor     zero-copy decode + spend collection + batched UV
//	             probe: the minimum work to answer unspentness
//	             starting from wire bytes — the ratio denominator
//	copy-decode  copying decode + connect (the pre-wire-speed decode)
//	zero-copy    borrowed-bytes decode + connect on one reused ingest
//	             scratch (the warm path)
//
// Arms run interleaved for Options.Repeats rounds; results are
// written as BENCH_overhead.json into Options.ArtifactDir.
func (e *Env) AblationOverhead(w io.Writer) error {
	probe := func(measureDecode bool) overheadStep {
		var spends []statusdb.Spend
		var probes []statusdb.ProbeResult
		return func(n *node.EBVNode, scr *ingest.Scratch, raw []byte) (time.Duration, *core.Breakdown, error) {
			t0 := time.Now()
			blk, err := scr.DecodeEBVBlock(raw)
			if err != nil {
				return 0, nil, err
			}
			spends = spends[:0]
			for _, tx := range blk.Txs[1:] {
				for bi := range tx.Bodies {
					body := &tx.Bodies[bi]
					spends = append(spends, statusdb.Spend{Height: body.Height, Pos: body.AbsPosition()})
				}
			}
			if !measureDecode {
				t0 = time.Now()
			}
			probes, _, _ = n.Status.IsUnspentBatchInto(spends, probes)
			d := time.Since(t0)
			for i, r := range probes {
				if r.Err != nil || !r.Unspent {
					return 0, nil, fmt.Errorf("probe %d: unspent %v, err %v", i, r.Unspent, r.Err)
				}
			}
			bd, err := n.Validator.ConnectBlockIn(blk, scr)
			return d, bd, err
		}
	}
	steps := []struct {
		name string
		step overheadStep
	}{
		{"uv-floor", probe(true)},
		{"probe-only", probe(false)},
		{"copy-decode", func(n *node.EBVNode, _ *ingest.Scratch, raw []byte) (time.Duration, *core.Breakdown, error) {
			t0 := time.Now()
			blk, err := blockmodel.DecodeEBVBlock(raw)
			if err != nil {
				return 0, nil, err
			}
			bd, err := n.Validator.ConnectBlock(blk)
			return time.Since(t0), bd, err
		}},
		{"zero-copy", func(n *node.EBVNode, scr *ingest.Scratch, raw []byte) (time.Duration, *core.Breakdown, error) {
			t0 := time.Now()
			blk, err := scr.DecodeEBVBlock(raw)
			if err != nil {
				return 0, nil, err
			}
			bd, err := n.Validator.ConnectBlockIn(blk, scr)
			return time.Since(t0), bd, err
		}},
	}

	arms := make([]arm, len(steps))
	for i, s := range steps {
		arms[i] = arm{name: s.name, run: func() (reading, error) {
			n, done, err := e.freshEBVNode(func(c *node.Config) { c.VerifyCacheSize = overheadCacheSize })
			if err != nil {
				return reading{}, err
			}
			defer done()
			scr := ingest.NewScratch()
			bd, err := e.replayWindow(n, true, func(raw []byte) (*core.Breakdown, error) {
				d, bd, err := s.step(n, scr, raw)
				if err != nil {
					return nil, err
				}
				hdr, err := blockmodel.DecodeHeader(raw[:blockmodel.HeaderSize])
				if err != nil {
					return nil, err
				}
				return &core.Breakdown{Other: d, Inputs: bd.Inputs}, n.Chain.Append(hdr, raw)
			})
			if err != nil {
				return reading{}, err
			}
			if bd.Inputs == 0 {
				return reading{}, fmt.Errorf("measurement window spends nothing")
			}
			return reading{float64(bd.Other) / float64(bd.Inputs), map[string]float64{"inputs": float64(bd.Inputs)}}, nil
		}}
	}
	_, err := e.measure(w, report{
		id:    "ablation-overhead",
		title: "Ablation: warm-path ingest overhead per step (window, mempool-warmed cache)",
		unit:  "ns/input",
		base:  "uv-floor",
	}, arms)
	return err
}
