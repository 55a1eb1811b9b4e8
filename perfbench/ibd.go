package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"ebv/internal/core"
	"ebv/internal/ingest"
	"ebv/internal/node"
)

// ebvnodeConfig is node.Config as cmd/ebvnode builds it from its flag
// defaults (-mode ebv), with only the data directory set.
func ebvnodeConfig(dir string) node.Config {
	return node.Config{
		Dir: dir, Optimize: true, StatusShards: 0,
		ParallelValidation: 1, VerifyCacheSize: 0, PipelineDepth: 0,
	}
}

// replay is one IBD of the generated chain into a fresh node.
type replay struct {
	wall     time.Duration
	inputs   int
	blocks   []float64 // per-block submit latency, ms
	blockIns []int     // per-block inputs
	bd       core.Breakdown
}

// runIBD replays the generated chain into fresh ebvnode-configured
// nodes, one block at a time through EBVNode.SubmitBlockRaw, until the
// measured time is spent, and checks every replay's final state
// against the generator.
func runIBD(p params) (*outcome, error) {
	o := newOutcome()
	ch, setup, err := repeatSetup(setupReps, func(rep int) (*genChain, error) {
		return generateChain(subdir(p, fmt.Sprintf("chain-%d", rep)), p.Seed)
	}, nil, (*genChain).release)
	if err != nil {
		return nil, err
	}
	defer ch.release()
	o.Metrics["setup_s"] = setup
	o.Meta["chain"] = ch.meta()

	var tr *Tracer
	if p.Trace {
		tr = NewTracer()
		zeroLayers(o)
	}
	keys := make([]string, ch.blocks)
	for h := range keys {
		hdr, _ := ch.store.Header(uint64(h))
		keys[h] = hdr.Hash().String()
	}

	gc := readGC()
	var (
		segs             segTimes // untraced replays
		traced, untraced []float64
		lat              []float64
		last             *node.EBVNode
		lastDir          string
		total            core.Breakdown
	)
	deadline := time.Now().Add(time.Duration(p.Seconds * float64(time.Second)))
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		if last != nil {
			last.Close()
			os.RemoveAll(lastDir)
		}
		lastDir = subdir(p, fmt.Sprintf("node-%d", i))
		n, err := node.NewEBVNode(ebvnodeConfig(lastDir))
		if err != nil {
			return nil, err
		}
		last = n
		// A traced run alternates traced and untraced replays, so the
		// two walls compare like with like.
		on := p.Trace && i%2 == 0
		tr.SetEnabled(on)
		runtime.GC() // start every replay from the same heap state
		r, err := replayInto(n, ch, tr, keys)
		if err != nil {
			o.problem("replay %d: %v", i, err)
			o.Attempted += ch.blocks
			o.Failed += ch.blocks
			break
		}
		o.Attempted += ch.blocks
		checkNode(o, fmt.Sprintf("replay %d", i), n, ch)
		lat = append(lat, r.blocks...)
		if on {
			traced = append(traced, r.wall.Seconds())
			total.Add(&r.bd)
		} else {
			untraced = append(untraced, r.wall.Seconds())
			segs.add(r.blockIns, r.blocks)
		}
	}
	live := heapLiveMB()
	if last != nil {
		o.Metrics["status_mem_bytes"] = float64(last.Status.MemUsage())
		if p.Trace {
			statusLayers(o, last)
		}
		last.Close()
	}
	s := Summarize(lat)
	inRate, blockRate := segs.rates()
	o.Metrics["ibd_inputs_per_s"] = inRate
	o.Metrics["latency_p50_ms"] = s.P50
	o.Metrics["latency_p90_ms"] = s.P90
	o.Metrics["throughput_per_s"] = blockRate
	o.Metrics["heap_live_mb"] = live
	o.Meta["replays"] = len(traced) + len(untraced)
	o.Meta["block_latency"] = s

	if p.Trace {
		recordGC(o, gc)
		ibdLayers(o, tr, total, sum(traced))
		o.Metrics["trace.overhead_ratio"] = Median(traced) / Median(untraced)
		if err := tr.WriteFile(tracePath(p)); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// replayInto runs one IBD. Untraced, it is node.RunIBDEBV — what
// ebvnode runs. Traced, it performs the same per-block steps as
// EBVNode.SubmitBlockRaw with a span around each layer's call.
func replayInto(n *node.EBVNode, ch *genChain, tr *Tracer, keys []string) (*replay, error) {
	r := &replay{blocks: make([]float64, 0, ch.blocks)}
	start := time.Now()
	if !tr.Enabled() {
		res, err := node.RunIBDEBV(ch.store, n, 1, func(ps node.PeriodStats) {
			r.blocks = append(r.blocks, ms(ps.Wall))
			r.blockIns = append(r.blockIns, ps.Breakdown.Inputs)
		})
		if err != nil {
			return nil, err
		}
		r.wall = time.Since(start)
		r.inputs = res.Total.Inputs
		r.bd = res.Total
		return r, nil
	}
	for h := 0; h < ch.blocks; h++ {
		t0 := time.Now()
		bd, err := tracedSubmit(n, ch, uint64(h), tr, keys[h])
		if err != nil {
			return nil, fmt.Errorf("ibd at height %d: %w", h, err)
		}
		r.blocks = append(r.blocks, ms(time.Since(t0)))
		r.blockIns = append(r.blockIns, bd.Inputs)
		r.inputs += bd.Inputs
		r.bd.Add(bd)
	}
	r.wall = time.Since(start)
	return r, nil
}

func tracedSubmit(n *node.EBVNode, ch *genChain, h uint64, tr *Tracer, key string) (*core.Breakdown, error) {
	root := tr.Begin("ibd.block", key, 0)
	defer root.End()
	sp := tr.Begin("chainstore.read", key, root.ID())
	raw, err := ch.store.BlockBytes(h)
	sp.End()
	if err != nil {
		return nil, err
	}
	s := ingest.Get()
	defer s.Release()
	sp = tr.Begin("ingest.decode", key, root.ID())
	blk, err := s.DecodeEBVBlock(raw)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tr.Begin("core.connect", key, root.ID())
	bd, err := n.Validator.ConnectBlockIn(blk, s)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tr.Begin("chainstore.append", key, root.ID())
	err = n.Chain.Append(blk.Header, raw)
	sp.End()
	return bd, err
}

// statusLayers records the status database's size getters.
func statusLayers(o *outcome, n *node.EBVNode) {
	o.Metrics["statusdb.vectors"] = float64(n.Status.VectorCount())
	o.Metrics["statusdb.unspent"] = float64(n.Status.UnspentCount())
	o.Metrics["statusdb.dense_bytes"] = float64(n.Status.DenseUsage())
}

// checkNode compares a node's final state with the generator's.
func checkNode(o *outcome, what string, n *node.EBVNode, ch *genChain) {
	if got := n.Chain.TipHash(); got != ch.tip {
		o.problem("%s: tip %s, want %s", what, got.Short(), ch.tip.Short())
		o.Failed++
	}
	if err := n.Status.CheckInvariants(); err != nil {
		o.problem("%s: status invariants: %v", what, err)
		o.Failed++
	}
	if got := n.Status.UnspentCount(); got != int64(ch.utxos) {
		o.problem("%s: %d unspent, generator has %d UTXOs", what, got, ch.utxos)
		o.Failed++
	}
}

// ibdLayers turns the traced replays' spans and breakdowns into the
// per-layer metrics.
func ibdLayers(o *outcome, tr *Tracer, bd core.Breakdown, wallS float64) {
	st := SelfTimes(tr.Spans())
	get := func(name string) *LayerTime {
		if lt := st[name]; lt != nil {
			return lt
		}
		return &LayerTime{}
	}
	blocks := float64(get("ibd.block").Count)
	inputs := float64(bd.Inputs)
	o.Metrics["chainstore.read_us_per_block"] = perUnit(float64(get("chainstore.read").Total)/1e3, blocks)
	o.Metrics["chainstore.append_us_per_block"] = perUnit(float64(get("chainstore.append").Total)/1e3, blocks)
	o.Metrics["ingest.decode_ns_per_input"] = perUnit(float64(get("ingest.decode").Total), inputs)
	o.Metrics["core.connect_ns_per_input"] = perUnit(float64(get("core.connect").Total), inputs)
	o.Metrics["core.connect_ms_per_block"] = perUnit(ms(get("core.connect").Total), blocks)
	o.Metrics["core.ev_ns_per_input"] = perUnit(float64(bd.EV), inputs)
	o.Metrics["core.sv_ns_per_input"] = perUnit(float64(bd.SV), inputs)
	o.Metrics["core.uv_ns_per_input"] = perUnit(float64(bd.UV), inputs)
	o.Metrics["core.other_ns_per_input"] = perUnit(float64(bd.Other+bd.DBO), inputs)
	// The share of the traced replays' wall time that no layer span
	// covers: the ingest scratch pool, the replay loop and the spans'
	// own cost.
	var layers time.Duration
	for _, name := range []string{"chainstore.read", "ingest.decode", "core.connect", "chainstore.append"} {
		layers += get(name).Total
	}
	o.Metrics["ibd.uncovered_ratio"] = perUnit(wallS-layers.Seconds(), wallS)
}
