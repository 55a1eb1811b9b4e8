package bench

import (
	"fmt"
	"io"
	"net"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/forkchoice"
	"ebv/internal/light"
	"ebv/internal/node"
	"ebv/internal/p2p"
	"ebv/internal/p2p/wire"
	"ebv/internal/script"
	"ebv/internal/simnet"
)

// AblationLight measures the light-client tier end to end: one full
// node (fork choice + light serve) carries the chain minus a few
// held-back blocks, a crowd of light clients attaches over in-memory
// pipes, syncs headers, and subscribes filters that match the
// held-back blocks' coinbases (plus one cold pattern each, so the
// registry holds subscriber-count-many entries). The held-back blocks
// are then mined one at a time and the harness waits for every client
// to verify every push.
//
// Reported per arm: serve-side cost of the fan-out (one-time match
// scan per block, push bytes per 1k subscribers), client-side
// verification latency per block against the cost of validating a
// block during full IBD, and the end-to-end convergence wall. A
// simnet pass projects the measured per-block costs onto a
// geo-distributed tier of 1000 subscribers. The client counters also
// prove the trust model's shape: every client verifies its blocks
// with zero full-block (by-height) downloads and no status database.
//
// The tier is measured once (the converge arm has one sample per
// pushed block); results are written as BENCH_light.json into
// Options.ArtifactDir.
func (e *Env) AblationLight(w io.Writer) error {
	subscribers := 1000
	heldBack := uint64(3)
	if e.Opts.Quick {
		subscribers = 250
	}

	srcTip, ok := e.EBVChain.TipHeight()
	if !ok || srcTip < heldBack+10 {
		return fmt.Errorf("light: chain too small (tip %d)", srcTip)
	}
	serveTip := srcTip - heldBack

	// The serving full node: fork choice gives it the hash-addressed
	// block index the getlightblock path serves from.
	dir, err := e.TempNodeDir()
	if err != nil {
		return err
	}
	cfg := e.EBVNodeConfig(dir)
	en, err := node.NewEBVNode(cfg)
	if err != nil {
		return err
	}
	defer en.Close()
	eng := en.EnableForkChoice(forkchoice.Config{})
	for h := uint64(0); h <= serveTip; h++ {
		raw, err := e.EBVChain.BlockBytes(h)
		if err != nil {
			return err
		}
		if _, err := en.AcceptBlock(raw, ""); err != nil {
			return fmt.Errorf("light: seeding block %d: %w", h, err)
		}
	}
	gn := p2p.NewNode(p2p.EBVChain{Node: en}, p2p.Config{
		Forks: eng, LightServe: true, MaxPeers: subscribers + 8,
	})
	defer gn.Close()

	// Every held-back block's coinbase data elements form the shared
	// watch set, so each mined block matches every subscriber — the
	// worst-case fan-out.
	var shared [][]byte
	held := make([][]byte, 0, heldBack)
	for h := serveTip + 1; h <= srcTip; h++ {
		raw, err := e.EBVChain.BlockBytes(h)
		if err != nil {
			return err
		}
		blk, err := blockmodel.DecodeEBVBlock(raw)
		if err != nil {
			return err
		}
		shared = append(shared, script.PushedData(nil, blk.Txs[0].Tidy.Outputs[0].LockScript)...)
		held = append(held, raw)
	}

	logf(w, "light tier: attaching %d subscribers to one full node at tip %d", subscribers, serveTip)
	attachStart := time.Now()
	clients := make([]*light.Client, subscribers)
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i := range clients {
		srv, cli := net.Pipe()
		gn.ServeConn(srv)
		f := &light.Filter{Patterns: append(append([][]byte{}, shared...), []byte(fmt.Sprintf("cold-%04d", i)))}
		c := light.NewClient(cli, light.Config{Filter: f})
		if err := c.Start(); err != nil {
			return fmt.Errorf("light: client %d: %w", i, err)
		}
		clients[i] = c
	}
	syncDeadline := time.Now().Add(120 * time.Second)
	for _, c := range clients {
		select {
		case <-c.Synced():
		case <-time.After(time.Until(syncDeadline)):
			return fmt.Errorf("light: header sync timed out at %d subscribers", subscribers)
		}
	}
	attachWall := time.Since(attachStart)
	if ls := gn.LightStats(); ls.Subscribers != subscribers {
		return fmt.Errorf("light: %d live subscriptions, want %d", ls.Subscribers, subscribers)
	}

	// Mine the held-back blocks one at a time; each must reach and
	// verify on every client before the next goes out.
	lightBytes := func() int64 {
		var total int64
		ks := gn.KindStats()
		for _, k := range []byte{wire.SubUpdate, wire.LightBlock} {
			total += ks[k].BytesOut
		}
		return total
	}
	statsBefore := gn.LightStats()
	bytesBefore := lightBytes()
	converge := make([]reading, 0, len(held))
	for bi, raw := range held {
		start := time.Now()
		if err := gn.SubmitLocal(raw); err != nil {
			return fmt.Errorf("light: mining held-back block %d: %w", bi, err)
		}
		want := uint64(bi + 1)
		deadline := time.Now().Add(120 * time.Second)
		for {
			done := 0
			for _, c := range clients {
				if c.Stats().BlocksVerified >= want {
					done++
				}
			}
			if done == subscribers {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("light: block %d converged on %d/%d clients", bi, done, subscribers)
			}
			time.Sleep(2 * time.Millisecond)
		}
		converge = append(converge, reading{value: float64(time.Since(start))})
	}
	statsAfter := gn.LightStats()
	servedBytes := lightBytes() - bytesBefore
	blocks := int64(len(held))

	// Client-side totals. FullBlockDownloads must stay zero: the tier's
	// whole point is that no client ever fetched a block by height.
	var verifyNS, pushNS, verified, fullDownloads, dropped int64
	for _, c := range clients {
		st := c.Stats()
		verifyNS += st.VerifyNanos
		pushNS += st.PushToVerifyNanos
		verified += int64(st.BlocksVerified)
		fullDownloads += int64(st.FullBlockDownloads)
		dropped += int64(st.DroppedSignals)
	}
	if fullDownloads != 0 {
		return fmt.Errorf("light: %d full-block downloads; the light path must fetch by hash only", fullDownloads)
	}
	matchNSPerBlock := (statsAfter.MatchNanos - statsBefore.MatchNanos) / blocks
	bytesPer1kPerBlock := servedBytes * 1000 / int64(subscribers) / blocks
	verifyNSPerBlock := verifyNS / verified
	pushNSPerBlock := pushNS / verified

	// The full-IBD yardstick: replay the same chain into a fresh node
	// and take its steady per-block validation cost.
	ibdDir, err := e.TempNodeDir()
	if err != nil {
		return err
	}
	in, err := node.NewEBVNode(e.EBVNodeConfig(ibdDir))
	if err != nil {
		return err
	}
	defer in.Close()
	ibdStart := time.Now()
	if _, err := node.RunIBDEBV(e.EBVChain, in, 0, nil); err != nil {
		return err
	}
	ibdPerBlockNS := int64(time.Since(ibdStart)) / int64(srcTip+1)

	// Project the measured costs onto a geo-distributed 1000-subscriber
	// tier: four serving nodes, the measured match/verify times, pushes
	// serialized at the measured per-subscriber byte cost over 1 MiB/s.
	pushBytesPerSub := servedBytes / int64(subscribers) / blocks
	sim, err := simnet.RunLightTier(simnet.LightTierConfig{
		Config: simnet.Config{
			Nodes: 8, Regions: 4, Seed: e.Opts.Seed,
			Validation: simnet.Fixed(time.Duration(ibdPerBlockNS)),
		},
		LightClients:  1000,
		Servers:       4,
		MatchPerBlock: time.Duration(matchNSPerBlock),
		PushPerClient: time.Duration(float64(pushBytesPerSub) / float64(1<<20) * float64(time.Second)),
		LightVerify:   simnet.Fixed(time.Duration(verifyNSPerBlock)),
	})
	if err != nil {
		return err
	}

	var simBusy time.Duration
	for _, b := range sim.ServeBusy {
		simBusy += b
	}
	arms := []armResult{
		summarize("converge/block", converge),
		single("serve-match/block", float64(matchNSPerBlock), map[string]float64{
			"subscribers":                 float64(subscribers),
			"pushed_blocks":               float64(blocks),
			"attach_and_sync_wall_ns":     float64(attachWall),
			"serve_bytes":                 float64(servedBytes),
			"bytes_per_1k_subs_per_block": float64(bytesPer1kPerBlock),
			"notifies":                    float64(statsAfter.Notifies - statsBefore.Notifies),
			"dropped":                     float64(statsAfter.Dropped - statsBefore.Dropped),
			"blocks_by_hash":              float64(statsAfter.BlocksServed - statsBefore.BlocksServed),
		}),
		single("client-verify/block", float64(verifyNSPerBlock), map[string]float64{
			"push_to_verify_ns":    float64(pushNSPerBlock),
			"drop_signals":         float64(dropped),
			"full_block_downloads": float64(fullDownloads),
			"verify_over_ibd":      float64(verifyNSPerBlock) / float64(ibdPerBlockNS),
		}),
		single("full-ibd/block", float64(ibdPerBlockNS), nil),
		single("sim-1000-last-client", float64(sim.LastClient()), map[string]float64{
			"serve_busy_ns": float64(simBusy),
		}),
	}
	if err := e.emit(w, report{
		id:    "ablation-light",
		title: "Ablation: light tier — serve-side fan-out cost and client verification per 1k subscribers",
		unit:  "ns",
	}, 1, arms); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d clients verified %d pushes with %d full-block downloads and %d status-database reads (light.VerifyBlock anchors to headers alone); %d bytes per 1k subscribers per block.\n",
		subscribers, verified, fullDownloads, 0, bytesPer1kPerBlock)
	return nil
}
