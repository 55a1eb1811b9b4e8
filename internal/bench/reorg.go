package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/node"
)

// timed runs f and returns its wall time.
func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// AblationReorg measures the cost of switching branches — the
// fork-choice engine's critical path — as a function of reorg depth.
// For each depth d the experiment disconnects the top d blocks of a
// fully synced node and reconnects them, timing both phases. The
// comparison isolates the paper's design difference: EBV disconnects
// restore unspent bits straight from the block's own input bodies (no
// auxiliary state), while the baseline must load and replay persisted
// undo records against the UTXO database.
//
// Every cycle ends exactly where it started (the sanity checks pin
// it), so the arms share one synced node per system and run
// interleaved for Options.Repeats rounds; results are written as
// BENCH_reorg.json into Options.ArtifactDir.
func (e *Env) AblationReorg(w io.Writer) error {
	en, done, err := e.freshEBVNode(nil)
	if err != nil {
		return err
	}
	defer done()
	if _, err := node.RunIBDEBV(e.EBVChain, en, 0, nil); err != nil {
		return err
	}
	btcDir, err := e.TempNodeDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(btcDir)
	bn, err := node.NewBitcoinNode(node.Config{
		Dir: btcDir, MemLimit: e.Opts.MemLimit,
		ReadLatency: e.Opts.ReadLatency, Scheme: e.Opts.Scheme(),
	})
	if err != nil {
		return err
	}
	defer bn.Close()
	if _, err := node.RunIBDBitcoin(e.ClassicChain, bn, 0, nil); err != nil {
		return err
	}

	cycle := func(f func() (disc, conn time.Duration, err error)) func() (reading, error) {
		return func() (reading, error) {
			disc, conn, err := f()
			return reading{float64(disc + conn), map[string]float64{
				"disconnect_ns": float64(disc), "reconnect_ns": float64(conn),
			}}, err
		}
	}
	var arms []arm
	for _, d := range []int{1, 2, 8, 32} {
		if d > e.Opts.Blocks/2 {
			fmt.Fprintf(w, "skipping depth %d: chain of %d blocks is too short\n", d, e.Opts.Blocks)
			continue
		}
		arms = append(arms,
			arm{fmt.Sprintf("ebv d=%d", d), cycle(func() (time.Duration, time.Duration, error) { return e.reorgCycleEBV(en, d) })},
			arm{fmt.Sprintf("bitcoin d=%d", d), cycle(func() (time.Duration, time.Duration, error) { return e.reorgCycleBitcoin(bn, d) })},
		)
	}
	if _, err := e.measure(w, report{
		id:    "ablation-reorg",
		title: "Ablation: reorg cost vs depth (disconnect + reconnect, same blocks)",
		unit:  "ns",
		cols:  []string{"disconnect_ns", "reconnect_ns"},
	}, arms); err != nil {
		return err
	}
	fmt.Fprintln(w, "EBV restores bits from the disconnected block's own bodies; the baseline replays persisted undo records.")
	return nil
}

// reorgCycleEBV disconnects d tip blocks and reconnects the same
// blocks, returning both phases' wall times. State must round-trip
// exactly (unspent count against ground truth).
func (e *Env) reorgCycleEBV(n *node.EBVNode, d int) (disc, conn time.Duration, err error) {
	tip, ok := n.Chain.TipHeight()
	if !ok || int(tip)+1 < d {
		return 0, 0, fmt.Errorf("chain too short for depth %d", d)
	}
	// Detach the raws first: truncation frees the store's view.
	raws := make([][]byte, 0, d)
	for h := tip - uint64(d) + 1; h <= tip; h++ {
		raw, err := n.Chain.BlockBytes(h)
		if err != nil {
			return 0, 0, err
		}
		raws = append(raws, append([]byte(nil), raw...))
	}
	disc, err = timed(func() error {
		for i := 0; i < d; i++ {
			if err := n.DisconnectTip(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	conn, err = timed(func() error {
		for _, raw := range raws {
			blk, err := blockmodel.DecodeEBVBlock(raw)
			if err != nil {
				return err
			}
			if _, err := n.SubmitBlock(blk); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	if got, want := int(n.Status.UnspentCount()), e.Gen.UTXOCount(); got != want {
		return 0, 0, fmt.Errorf("unspent bits %d != ground truth %d after round trip", got, want)
	}
	return disc, conn, nil
}

// reorgCycleBitcoin is the baseline mirror of reorgCycleEBV.
func (e *Env) reorgCycleBitcoin(n *node.BitcoinNode, d int) (disc, conn time.Duration, err error) {
	tip, ok := n.Chain.TipHeight()
	if !ok || int(tip)+1 < d {
		return 0, 0, fmt.Errorf("chain too short for depth %d", d)
	}
	raws := make([][]byte, 0, d)
	for h := tip - uint64(d) + 1; h <= tip; h++ {
		raw, err := n.Chain.BlockBytes(h)
		if err != nil {
			return 0, 0, err
		}
		raws = append(raws, append([]byte(nil), raw...))
	}
	disc, err = timed(func() error {
		for i := 0; i < d; i++ {
			if err := n.DisconnectTip(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	conn, err = timed(func() error {
		for _, raw := range raws {
			blk, err := blockmodel.DecodeClassicBlock(raw)
			if err != nil {
				return err
			}
			if _, err := n.SubmitBlock(blk); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	if got, want := int(n.UTXO.Count()), e.Gen.UTXOCount(); got != want {
		return 0, 0, fmt.Errorf("UTXO count %d != ground truth %d after round trip", got, want)
	}
	return disc, conn, nil
}
