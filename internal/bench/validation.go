package bench

import (
	"fmt"
	"io"

	"ebv/internal/core"
	"ebv/internal/node"
)

// WindowLen is the number of consecutive blocks the per-block
// validation figures measure (the paper uses heights 590000–590009).
const WindowLen = 10

// WindowSeries holds per-block validation breakdowns for both systems
// over the measurement window, after syncing the prefix of the chain.
type WindowSeries struct {
	Start   uint64
	Bitcoin []core.Breakdown
	EBV     []core.Breakdown
	// PrefixBitcoin and PrefixEBV hold per-block breakdowns over a
	// trailing stretch before the window, used to build the
	// propagation-delay validation models (Fig. 18).
	PrefixBitcoin []core.Breakdown
	PrefixEBV     []core.Breakdown
}

// windowSeries syncs both nodes up to the window start, then records
// each window block's validation breakdown. The baseline syncs without
// the disk model and measures under it (Options.WindowLatency): the
// paper's measurement sits on a node whose UTXO set long since
// outgrew its memory budget on an HDD, a regime a fast sync cannot
// alter because only the cache-miss *rate* carries over.
func (e *Env) windowSeries(log io.Writer) (*WindowSeries, error) {
	if e.windowCache != nil {
		return e.windowCache, nil
	}
	start := e.WindowStart()
	tail := 50 // trailing blocks sampled for Fig. 18 models
	ws := &WindowSeries{Start: start}

	// Baseline.
	dir, err := e.TempNodeDir()
	if err != nil {
		return nil, err
	}
	btc, err := node.NewBitcoinNode(node.Config{
		Dir: dir, MemLimit: e.Opts.MemLimit, Scheme: e.Opts.Scheme(),
	})
	if err != nil {
		return nil, err
	}
	defer btc.Close()
	hddFrom := uint64(0)
	if start > uint64(tail) {
		hddFrom = start - uint64(tail)
	}
	logf(log, "validation window: baseline sync to height %d (HDD model from %d)", start, hddFrom)
	for h := uint64(0); h < start+WindowLen; h++ {
		if h == hddFrom {
			btc.SetReadLatency(e.Opts.WindowLatency)
		}
		raw, err := e.ClassicChain.BlockBytes(h)
		if err != nil {
			return nil, err
		}
		blk, err := decodeClassic(raw)
		if err != nil {
			return nil, err
		}
		bd, err := btc.SubmitBlock(blk)
		if err != nil {
			return nil, fmt.Errorf("baseline at %d: %w", h, err)
		}
		switch {
		case h >= start:
			ws.Bitcoin = append(ws.Bitcoin, *bd)
		case h+uint64(tail) >= start:
			ws.PrefixBitcoin = append(ws.PrefixBitcoin, *bd)
		}
	}

	// EBV.
	dir2, err := e.TempNodeDir()
	if err != nil {
		return nil, err
	}
	ebv, err := node.NewEBVNode(e.EBVNodeConfig(dir2))
	if err != nil {
		return nil, err
	}
	defer ebv.Close()
	logf(log, "validation window: EBV sync to height %d", start)
	for h := uint64(0); h < start+WindowLen; h++ {
		raw, err := e.EBVChain.BlockBytes(h)
		if err != nil {
			return nil, err
		}
		blk, err := decodeEBV(raw)
		if err != nil {
			return nil, err
		}
		bd, err := ebv.SubmitBlock(blk)
		if err != nil {
			return nil, fmt.Errorf("ebv at %d: %w", h, err)
		}
		switch {
		case h >= start:
			ws.EBV = append(ws.EBV, *bd)
		case h+uint64(tail) >= start:
			ws.PrefixEBV = append(ws.PrefixEBV, *bd)
		}
	}
	e.windowCache = ws
	return ws, nil
}

// paperHeight renders a window offset as the paper's block height
// labels (590000..590009) next to the scaled height.
func (ws *WindowSeries) paperHeight(i int) string {
	return fmt.Sprintf("%d(≈%d)", ws.Start+uint64(i), 590_000+i)
}

// Fig4 reproduces Fig. 4: the baseline's per-block validation time
// split into DBO / SV / others (4a), and the input count against DBO
// and SV time (4b).
func (e *Env) Fig4(w io.Writer) error {
	ws, err := e.windowSeries(w)
	if err != nil {
		return err
	}
	ta := newTable("height", "total", "dbo", "sv", "others", "dbo-share")
	for i, bd := range ws.Bitcoin {
		other := bd.Other + bd.EV + bd.UV
		ta.row(ws.paperHeight(i), bd.Total(), bd.DBO, bd.SV, other, pct(bd.DBO, bd.Total()))
	}
	ta.write(w, "Fig 4a: Bitcoin block validation time (DBO / SV / others)")

	tb := newTable("height", "inputs", "dbo", "sv")
	for i, bd := range ws.Bitcoin {
		tb.row(ws.paperHeight(i), bd.Inputs, bd.DBO, bd.SV)
	}
	tb.write(w, "Fig 4b: input count vs DBO time vs SV time")
	return nil
}

// Fig15 reproduces Fig. 15: in EBV the validation time tracks the
// input count (everything is in memory).
func (e *Env) Fig15(w io.Writer) error {
	ws, err := e.windowSeries(w)
	if err != nil {
		return err
	}
	t := newTable("height", "inputs", "validation-time", "us-per-input")
	for i, bd := range ws.EBV {
		per := "n/a"
		if bd.Inputs > 0 {
			per = fmt.Sprintf("%.1f", float64(bd.Total().Microseconds())/float64(bd.Inputs))
		}
		t.row(ws.paperHeight(i), bd.Inputs, bd.Total(), per)
	}
	t.write(w, "Fig 15: EBV input count vs validation time")
	return nil
}

// Fig16 reproduces Fig. 16: per-block validation time of Bitcoin vs
// EBV (16a) and the EBV-side split into EV / UV / SV / others (16b).
func (e *Env) Fig16(w io.Writer) error {
	ws, err := e.windowSeries(w)
	if err != nil {
		return err
	}
	ta := newTable("height", "bitcoin", "ebv", "reduction")
	var maxRed float64
	for i := range ws.Bitcoin {
		b, v := ws.Bitcoin[i].Total(), ws.EBV[i].Total()
		red := 100 * (float64(b) - float64(v)) / float64(b)
		if red > maxRed {
			maxRed = red
		}
		ta.row(ws.paperHeight(i), b, v, fmt.Sprintf("%.1f%%", red))
	}
	ta.write(w, "Fig 16a: block validation time, Bitcoin vs EBV")
	fmt.Fprintf(w, "max reduction: %.1f%% (paper: 93.5%% at height 590004)\n", maxRed)

	tb := newTable("height", "ev", "uv", "sv", "others", "sv-share")
	for i, bd := range ws.EBV {
		tb.row(ws.paperHeight(i), bd.EV, bd.UV, bd.SV, bd.Other, pct(bd.SV, bd.Total()))
	}
	tb.write(w, "Fig 16b: EBV validation time components")
	return nil
}

// replayWindow replays the chain into n — every block below the
// measurement window through SubmitBlockRaw, then each window block
// through step — and returns the window blocks' summed breakdowns.
// Cache counters are reset at the window start, so the prefix's fill
// and churn are not charged to the window. With warm set, each window
// block's non-coinbase transactions are first admitted through
// ValidateTx — the relay path, which populates the verified-proof
// cache — on a separate decode, so cache warmth (deliberate) reaches
// the measured block but memoized hashes (an artifact) do not.
func (e *Env) replayWindow(n *node.EBVNode, warm bool, step func(raw []byte) (*core.Breakdown, error)) (*core.Breakdown, error) {
	start := e.WindowStart()
	out := &core.Breakdown{}
	for h := uint64(0); h < start+WindowLen; h++ {
		raw, err := e.EBVChain.BlockBytes(h)
		if err != nil {
			return nil, err
		}
		if h < start {
			if _, err := n.SubmitBlockRaw(raw); err != nil {
				return nil, fmt.Errorf("prefix height %d: %w", h, err)
			}
			continue
		}
		if c := n.Validator.Cache(); h == start && c != nil {
			c.ResetStats()
		}
		if warm {
			pre, err := decodeEBV(raw)
			if err != nil {
				return nil, err
			}
			for i, tx := range pre.Txs[1:] {
				if err := n.Validator.ValidateTx(tx); err != nil {
					return nil, fmt.Errorf("warming height %d tx %d: %w", h, i+1, err)
				}
			}
		}
		bd, err := step(raw)
		if err != nil {
			return nil, fmt.Errorf("height %d: %w", h, err)
		}
		out.Add(bd)
	}
	return out, nil
}

// windowArm is an arm that replays the chain into a fresh EBV node —
// the Env's configuration adjusted by cfg — and reads the measurement
// window's summed validation time, with its phase split and cache
// counters as metrics.
func (e *Env) windowArm(name string, warm bool, cfg func(*node.Config)) arm {
	return arm{name: name, run: func() (reading, error) {
		n, done, err := e.freshEBVNode(cfg)
		if err != nil {
			return reading{}, err
		}
		defer done()
		bd, err := e.replayWindow(n, warm, n.SubmitBlockRaw)
		if err != nil {
			return reading{}, err
		}
		m := map[string]float64{
			"ev_ns": float64(bd.EV), "uv_ns": float64(bd.UV), "sv_ns": float64(bd.SV), "other_ns": float64(bd.Other),
			"cache_hits": float64(bd.CacheHits), "cache_misses": float64(bd.CacheMisses),
		}
		if c := n.Validator.Cache(); c != nil {
			m["evictions"] = float64(c.Stats().Evictions)
		}
		return reading{float64(bd.Total()), m}, nil
	}}
}
