package bench

import (
	"fmt"
	"io"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/loadgen"
	"ebv/internal/mempool"
	"ebv/internal/node"
	"ebv/internal/p2p"
	"ebv/internal/p2p/wire"
	"ebv/internal/script"
	"ebv/internal/simnet"
	"ebv/internal/txmodel"
)

// AblationRelay measures compact block relay end to end: two live EBV
// nodes over localhost TCP, the announcer mining a block from its
// mempool and pushing it to the receiver, whose mempool has been
// pre-warmed with a controlled fraction of the block's transactions.
// The sweep crosses mempool overlap {0, 50, 95, 100}% with compact
// relay on/off and reports, per arm, the bytes that crossed the wire
// to deliver the block, the request round trips the receiver needed,
// the transactions it had to fetch, and the wall-clock delivery time.
//
// A second pass feeds the measured announcement/fetch sizes into the
// simnet transfer model to project per-hop savings onto the paper's
// twenty-node propagation topology (§VI-E).
//
// Each arm runs once; results are written as BENCH_relay.json into
// Options.ArtifactDir, one arm per relay mode and overlap, valued in
// delivery bytes.
func (e *Env) AblationRelay(w io.Writer) error {
	overlaps := []int{0, 50, 95, 100}
	perArm := 96
	if e.Opts.Quick {
		perArm = 32
	}
	corpus, err := loadgen.Prepare(e.EBVChain, e.Opts.Scheme(), len(overlaps)*perArm, 1_000)
	if err != nil {
		return err
	}
	if len(corpus) < len(overlaps)*perArm {
		perArm = len(corpus) / len(overlaps)
	}
	if perArm < 4 {
		return fmt.Errorf("only %d spendable outputs; chain too small for the relay sweep", len(corpus))
	}
	logf(w, "relay corpus: %d transactions, %d per block", len(overlaps)*perArm, perArm)

	// runPair syncs a fresh announcer/receiver pair, connects them, and
	// runs every overlap arm through it: each arm mines the next block
	// from its own corpus slice, so the pair's chain grows by one block
	// per arm and the slices never double-spend.
	runPair := func(compact bool) ([]armResult, error) {
		arm := "full"
		if compact {
			arm = "compact"
		}
		mk := func() (*node.EBVNode, *p2p.Node, error) {
			dir, err := e.TempNodeDir()
			if err != nil {
				return nil, nil, err
			}
			cfg := e.EBVNodeConfig(dir)
			cfg.Admission = &node.AdmissionConfig{
				Pool: mempool.Config{MaxTxs: len(corpus) + 16, MaxBytes: 1 << 30},
			}
			n, err := node.NewEBVNode(cfg)
			if err != nil {
				return nil, nil, err
			}
			if _, err := node.RunIBDEBV(e.EBVChain, n, 0, nil); err != nil {
				n.Close()
				return nil, nil, err
			}
			pcfg := p2p.Config{}
			if compact {
				pcfg.Relay = n.Pool
			}
			gn := p2p.NewNode(p2p.EBVChain{Node: n}, pcfg)
			if _, err := gn.Start(); err != nil {
				n.Close()
				return nil, nil, err
			}
			return n, gn, nil
		}
		nA, gA, err := mk()
		if err != nil {
			return nil, err
		}
		defer nA.Close()
		defer gA.Close()
		nB, gB, err := mk()
		if err != nil {
			return nil, err
		}
		defer nB.Close()
		defer gB.Close()
		if err := gB.Connect(gA.Addr()); err != nil {
			return nil, err
		}
		deadline := time.Now().Add(10 * time.Second)
		for gA.PeerCount() < 1 || gB.PeerCount() < 1 {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("relay: %s pair never connected", arm)
			}
			time.Sleep(5 * time.Millisecond)
		}

		// quiesce waits for the pair's wire traffic to go silent so one
		// arm's trailing catch-up request (the receiver probes for a
		// successor block after accepting one) cannot race into the next
		// arm's measurement window and double-deliver a block.
		quiesce := func() {
			prev := int64(-1)
			for i := 0; i < 250; i++ {
				cur := gA.BytesRead() + gB.BytesRead()
				if cur == prev {
					return
				}
				prev = cur
				time.Sleep(20 * time.Millisecond)
			}
		}

		payee := e.Opts.Scheme().KeyFromSeed([]byte("relay-miner"))
		var rows []armResult
		for i, overlap := range overlaps {
			slice := corpus[i*perArm : (i+1)*perArm]
			warm := len(slice) * overlap / 100
			for j, raw := range slice {
				txA, err := txmodel.DecodeEBVTx(raw)
				if err != nil {
					return nil, fmt.Errorf("relay decode %d: %w", j, err)
				}
				if _, err := nA.Pool.Add(txA); err != nil {
					return nil, fmt.Errorf("relay: announcer add %d: %w", j, err)
				}
				if j < warm {
					txB, err := txmodel.DecodeEBVTx(raw)
					if err != nil {
						return nil, err
					}
					if _, err := nB.Pool.Add(txB); err != nil {
						return nil, fmt.Errorf("relay: receiver warm %d: %w", j, err)
					}
				}
			}
			txs, fees := nA.Pool.BuildTemplate(0)
			tip, _ := nA.Chain.TipHeight()
			height := tip + 1
			coinbase := &txmodel.EBVTx{Tidy: txmodel.TidyTx{
				Outputs: []txmodel.TxOut{{
					Value:      blockmodel.Subsidy(height) + fees,
					LockScript: script.StandardLock(payee),
				}},
				LockTime: uint32(height),
			}}
			blk, err := blockmodel.AssembleEBV(nA.Chain.TipHash(), height, 0,
				append([]*txmodel.EBVTx{coinbase}, txs...))
			if err != nil {
				return nil, err
			}
			rawBlk := blk.Encode(nil)

			quiesce()
			before := gB.KindStats()
			relayBefore := gB.RelayStats()
			start := time.Now()
			if err := gA.SubmitLocal(rawBlk); err != nil {
				return nil, fmt.Errorf("relay: mine at %d: %w", height, err)
			}
			armDeadline := time.Now().Add(30 * time.Second)
			for {
				got, ok := nB.Chain.TipHeight()
				if ok && got >= height {
					break
				}
				if time.Now().After(armDeadline) {
					return nil, fmt.Errorf("relay: %s overlap %d%% delivery timed out", arm, overlap)
				}
				time.Sleep(time.Millisecond)
			}
			wall := time.Since(start)
			after := gB.KindStats()
			relayAfter := gB.RelayStats()

			delta := func(k byte) p2p.KindStat {
				a, b := after[k], before[k]
				return p2p.KindStat{
					MsgsIn: a.MsgsIn - b.MsgsIn, BytesIn: a.BytesIn - b.BytesIn,
					MsgsOut: a.MsgsOut - b.MsgsOut, BytesOut: a.BytesOut - b.BytesOut,
				}
			}
			var wireBytes, reqMsgs int64
			for _, k := range []byte{wire.Inv, wire.Block, wire.CmpctBlock, wire.BlockTxn} {
				wireBytes += delta(k).BytesIn
			}
			for _, k := range []byte{wire.GetBlocks, wire.GetData, wire.GetBlockTxn} {
				d := delta(k)
				wireBytes += d.BytesOut
				reqMsgs += d.MsgsOut
			}
			rows = append(rows, single(fmt.Sprintf("%s %d%%", arm, overlap), float64(wireBytes), map[string]float64{
				"txs":            float64(len(slice)),
				"block_bytes":    float64(len(rawBlk)),
				"req_msgs":       float64(reqMsgs),
				"txns_requested": float64(relayAfter.TxnsRequested - relayBefore.TxnsRequested),
				"fallbacks":      float64(relayAfter.Fallbacks - relayBefore.Fallbacks),
				"wall_ns":        float64(wall),
				"announce_bytes": float64(delta(wire.CmpctBlock).BytesIn),
			}))
		}
		return rows, nil
	}

	fullRows, err := runPair(false)
	if err != nil {
		return err
	}
	compactRows, err := runPair(true)
	if err != nil {
		return err
	}

	// Project the measured per-hop sizes onto the paper's propagation
	// topology: serialization time at 1 MiB/s links plus the compact
	// round trip whenever the receiving mempool can miss transactions.
	const bandwidth = float64(1 << 20)
	simMax := func(t *simnet.TransferModel) (time.Duration, error) {
		results, err := simnet.Repeat(simnet.Config{
			Seed:       e.Opts.Seed,
			Validation: simnet.Fixed(2 * time.Millisecond),
			Transfer:   t,
		}, e.Opts.Repeats)
		if err != nil {
			return 0, err
		}
		var sum time.Duration
		for _, r := range results {
			sum += r.Max()
		}
		return sum / time.Duration(len(results)), nil
	}
	for i := range fullRows {
		m, err := simMax(&simnet.TransferModel{Bandwidth: bandwidth, BlockBytes: int(fullRows[i].Median)})
		if err != nil {
			return err
		}
		fullRows[i].Metrics["sim_propagation_ns"] = float64(m)
	}
	for i := range compactRows {
		c := compactRows[i]
		miss := 0.0
		missBytes := 0
		if c.Metrics["txns_requested"] > 0 {
			miss = 1
			missBytes = int(c.Median - c.Metrics["announce_bytes"])
		}
		m, err := simMax(&simnet.TransferModel{Bandwidth: bandwidth, Compact: &simnet.CompactModel{
			AnnounceBytes: int(c.Metrics["announce_bytes"]), MissProb: miss, MissBytes: missBytes,
		}})
		if err != nil {
			return err
		}
		c.Metrics["sim_propagation_ns"] = float64(m)
		c.Metrics["reduction_vs_full"] = 1 - c.Median/fullRows[i].Median
	}

	if err := e.emit(w, report{
		id:    "ablation-relay",
		title: "Ablation: compact block relay vs full-block gossip across mempool overlap",
		unit:  "bytes",
		cols:  []string{"txs", "block_bytes", "req_msgs", "txns_requested", "fallbacks", "wall_ns", "sim_propagation_ns"},
	}, 1, append(fullRows, compactRows...)); err != nil {
		return err
	}
	for i, c := range compactRows {
		fmt.Fprintf(w, "overlap %3d%%: %.1f%% of the full-block bytes saved\n", overlaps[i], c.Metrics["reduction_vs_full"]*100)
	}
	fmt.Fprintln(w, "bytes counts the block-delivery kinds at the receiver (inv/block/cmpctblock/blocktxn in, requests out); sim_propagation_ns projects the per-hop sizes onto the 20-node simnet topology.")
	return nil
}
