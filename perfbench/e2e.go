package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"ebv/internal/admission"
	"ebv/internal/blockmodel"
	"ebv/internal/core"
	"ebv/internal/forkchoice"
	"ebv/internal/hashx"
	"ebv/internal/light"
	"ebv/internal/loadgen"
	"ebv/internal/node"
	"ebv/internal/p2p"
	"ebv/internal/p2p/wire"
	"ebv/internal/script"
	"ebv/internal/sig"
	"ebv/internal/txmodel"
)

// E2E sizing. Every transaction is admitted twice (A and B) and
// verified again by the light client, all in this process; 2000 tx/s
// is a fifteenth of what one node admits on a 2-CPU host. The mining
// interval yields ~330 blocks in 10 measured seconds, so p90 of the
// per-block latencies, pooled over the phases, has over thirty samples
// above it. Each of the nine phases offers ~2200 transactions, ~4200
// acks with B's. A network settles within tens of milliseconds of the
// last send; the drain bound only caps a phase that never settles.
const (
	e2eRate      = 2000                  // tx/s offered, to both nodes
	e2eAOnly     = 0.05                  // share of transactions sent to A only
	e2eMineEvery = 30 * time.Millisecond // A's mining interval
	e2eDrain     = 5 * time.Second       // longest wait for the last blocks to settle
	e2ePhases    = 3                     // measured phases per set-up network
)

// minerSeed is the seed ebvgossip -mine derives its coinbase key from;
// the light client watches that key's address.
const minerSeed = "ebvgossip-miner"

// e2eNet is the network under test: full nodes A and B peered over
// localhost, a light client attached to B, and one submitter
// connection to each node.
type e2eNet struct {
	ch         *genChain
	dir        string
	a, b       *node.EBVNode
	ga, gb     *p2p.Node
	lc         *light.Client
	addrA      string
	addrB      string
	subA, subB *submitter // the current phase's
	corpus     [][]byte
	unmap      func() // releases the corpus mapping
	aOnly      []bool
	fanout     int

	mu       sync.Mutex
	submitAt map[uint64]time.Time // height -> A's SubmitLocal call
	atB      map[uint64]time.Time // height -> B connected it
	atLight  map[uint64]time.Time // height -> light client verified
	roots    map[hashx.Hash]Open  // block hash -> traced root span
	connects []time.Duration      // B's traced connects
	bds      core.Breakdown       // B's traced connect breakdowns
	tr       *Tracer
}

func (e *e2eNet) release() {
	if e == nil {
		return
	}
	for _, s := range []*submitter{e.subA, e.subB} {
		if s != nil {
			s.close()
		}
	}
	if e.lc != nil {
		e.lc.Close()
	}
	for _, g := range []*p2p.Node{e.gb, e.ga} {
		if g != nil {
			g.Close()
		}
	}
	for _, n := range []*node.EBVNode{e.b, e.a} {
		if n != nil {
			n.Close()
		}
	}
	if e.unmap != nil {
		e.unmap()
	}
	os.RemoveAll(e.dir)
	e.ch.release()
}

// setupE2E builds the network for a corpus of want transactions. The
// nodes' import timings go to segs.
func setupE2E(p params, rep, want int, tr *Tracer, segs *segTimes) (e *e2eNet, err error) {
	e = &e2eNet{
		dir: subdir(p, fmt.Sprintf("net-%d", rep)), tr: tr,
		submitAt: make(map[uint64]time.Time), atB: make(map[uint64]time.Time),
		atLight: make(map[uint64]time.Time), roots: make(map[hashx.Hash]Open),
	}
	defer func() {
		if err != nil {
			e.release()
			e = nil
		}
	}()
	if e.ch, err = generateChain(subdir(p, fmt.Sprintf("chain-%d", rep)), p.Seed); err != nil {
		return
	}
	poolTxs, poolBytes := want+1024, want*4096
	if e.a, err = openImported(e.dir+"/a", e.ch, poolTxs, poolBytes, segs); err != nil {
		return
	}
	if e.b, err = openImported(e.dir+"/b", e.ch, poolTxs, poolBytes, segs); err != nil {
		return
	}
	var fan [][]byte
	if fan, e.fanout, err = buildFanout(e.a.Chain, want-e.ch.utxos/2, p.Seed); err != nil {
		return
	}
	if err = connectAll(e.a, fan); err != nil {
		return
	}
	if err = connectAll(e.b, fan); err != nil {
		return
	}
	if e.corpus, err = loadgen.Prepare(e.a.Chain, sig.SimSig{}, want, corpusFee); err != nil {
		return
	}
	e.ch.release() // the nodes hold their own copies from here on
	if len(e.corpus) < want || corpusBytes(e.corpus) > poolBytes {
		return e, fmt.Errorf("corpus of %d transactions, %d bytes does not fit want %d", len(e.corpus), corpusBytes(e.corpus), want)
	}
	if e.corpus, e.unmap, err = offHeap(filepath.Join(e.dir, "corpus"), e.corpus); err != nil {
		return
	}
	rng := rand.New(rand.NewSource(p.Seed ^ 0x5eed))
	e.aOnly = make([]bool, want)
	for i := range e.aOnly {
		e.aOnly[i] = rng.Float64() < e2eAOnly
	}

	if e.ga, e.addrA, err = startGossip(e.a, gossipOptions{}); err != nil {
		return
	}
	optB := gossipOptions{lightServe: true, onConnect: func(raw []byte) {
		if hdr, err := blockmodel.DecodeHeader(raw[:blockmodel.HeaderSize]); err == nil {
			e.mark(e.atB, hdr.Height)
		}
	}}
	if tr != nil {
		optB.forks = forkchoice.New(&timedForkChain{n: e.b, e: e}, forkConfig(optB.onConnect))
		e.b.Forks = optB.forks
	}
	if e.gb, e.addrB, err = startGossip(e.b, optB); err != nil {
		return
	}
	if err = e.gb.Connect(e.addrA); err != nil {
		return
	}
	payee := sig.SimSig{}.KeyFromSeed([]byte(minerSeed))
	addr := script.AddressOf(payee.Public())
	e.lc, err = light.Dial(e.addrB, light.Config{
		Filter: &light.Filter{Patterns: [][]byte{addr[:]}},
		OnBlock: func(h uint64, hash hashx.Hash, _ *blockmodel.EBVBlock) {
			now := time.Now()
			e.mu.Lock()
			e.atLight[h] = now
			root, ok := e.roots[hash]
			e.mu.Unlock()
			if ok {
				root.EndAt(now)
			}
		},
		Logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	})
	if err != nil {
		return
	}
	select {
	case <-e.lc.Synced():
	case <-e.lc.Done():
		return e, fmt.Errorf("light client: %v", e.lc.Err())
	case <-time.After(30 * time.Second):
		return e, fmt.Errorf("light client did not sync")
	}
	for deadline := time.Now().Add(10 * time.Second); e.ga.PeerCount() < 1 || e.gb.PeerCount() < 2; {
		if time.Now().After(deadline) {
			return e, fmt.Errorf("peering: A has %d peers, B has %d", e.ga.PeerCount(), e.gb.PeerCount())
		}
		time.Sleep(time.Millisecond)
	}
	return e, nil
}

func (e *e2eNet) mark(m map[uint64]time.Time, h uint64) {
	now := time.Now()
	e.mu.Lock()
	m[h] = now
	e.mu.Unlock()
}

// mineOnce does what ebvgossip -mine does on each tick: build a
// template from A's mempool, assemble it with a coinbase paying the
// miner key, and submit it through A's p2p node. It reports whether a
// block was mined.
func (e *e2eNet) mineOnce(payee sig.PrivateKey) (bool, error) {
	root := e.tr.Begin("e2e.block", "", 0)
	sp := e.tr.Begin("mempool.template", "", root.ID())
	txs, fees := e.a.Pool.BuildTemplate(0)
	sp.End()
	if len(txs) == 0 {
		return false, nil
	}
	tip, _ := e.a.Chain.TipHeight()
	height := tip + 1
	coinbase := &txmodel.EBVTx{Tidy: txmodel.TidyTx{
		Outputs:  []txmodel.TxOut{{Value: blockmodel.Subsidy(height) + fees, LockScript: script.StandardLock(payee)}},
		LockTime: uint32(height),
	}}
	blk, err := blockmodel.AssembleEBV(e.a.Chain.TipHash(), height, 0, append([]*txmodel.EBVTx{coinbase}, txs...))
	if err != nil {
		return false, fmt.Errorf("assemble at %d: %w", height, err)
	}
	raw := blk.Encode(nil)
	hash := blk.Header.Hash()
	root.key = hash.String()
	e.mu.Lock()
	if root.ID() != 0 {
		e.roots[hash] = root
	}
	e.submitAt[height] = time.Now()
	e.mu.Unlock()
	sp = e.tr.Begin("p2p.submit_local", root.key, root.ID())
	err = e.ga.SubmitLocal(raw)
	sp.End()
	if err != nil {
		return false, fmt.Errorf("submit at %d: %w", height, err)
	}
	return true, nil
}

// timedForkChain is the fork-choice backend B runs in traced runs: the
// same calls node.EBVNode.EnableForkChoice wires, with a span around
// each block connect.
type timedForkChain struct {
	n *node.EBVNode
	e *e2eNet
}

func (c *timedForkChain) TipHeight() (uint64, bool) { return c.n.Chain.TipHeight() }
func (c *timedForkChain) TipHash() hashx.Hash       { return c.n.Chain.TipHash() }
func (c *timedForkChain) Header(h uint64) (blockmodel.Header, bool) {
	return c.n.Chain.Header(h)
}
func (c *timedForkChain) HeightByHash(h hashx.Hash) (uint64, bool) { return c.n.Chain.HeightByHash(h) }
func (c *timedForkChain) HasBody(h uint64) bool                    { return c.n.Chain.HasBody(h) }
func (c *timedForkChain) BlockBytes(h uint64) ([]byte, error)      { return c.n.Chain.BlockBytes(h) }
func (c *timedForkChain) Locator() []hashx.Hash                    { return c.n.Chain.Locator() }
func (c *timedForkChain) LocatorFork(loc []hashx.Hash) (uint64, bool) {
	return c.n.Chain.LocatorFork(loc)
}

func (c *timedForkChain) ConnectRaw(raw []byte) error {
	var parent uint64
	key := ""
	if len(raw) >= blockmodel.HeaderSize {
		hash := hashx.DoubleSum(raw[:blockmodel.HeaderSize])
		key = hash.String()
		c.e.mu.Lock()
		parent = c.e.roots[hash].ID()
		c.e.mu.Unlock()
	}
	sp := c.e.tr.Begin("core.connect", key, parent)
	start := time.Now()
	bd, err := c.n.SubmitBlockRaw(raw)
	d := time.Since(start)
	sp.End()
	if err == nil && sp.ID() != 0 {
		c.e.mu.Lock()
		c.e.connects = append(c.e.connects, d)
		c.e.bds.Add(bd)
		c.e.mu.Unlock()
	}
	return err
}

func (c *timedForkChain) DisconnectTip() ([]byte, error) {
	tip, ok := c.n.Chain.TipHeight()
	if !ok {
		return nil, fmt.Errorf("disconnect on empty chain")
	}
	raw, err := c.n.Chain.BlockBytes(tip)
	if err != nil {
		return nil, err
	}
	raw = append([]byte(nil), raw...) // the store's view does not survive the truncate
	if err := c.n.DisconnectTip(); err != nil {
		return nil, err
	}
	return raw, nil
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// e2ePhase is what one measured phase recorded.
type e2ePhase struct {
	blocks     int
	ack        Summary   // of acks
	acks       []float64 // submit → txack from the due time, both nodes, ms
	prop       []float64 // A's SubmitLocal → B connected, ms per block
	light      []float64 // A's SubmitLocal → light client verified, ms per block
	late       []float64 // open-loop send lateness, ms
	throughput float64   // confirmed txs ÷ first send to last block at B
	bRejects   int
	cpu        time.Duration // process CPU time during the phase
	gc         gcMark
}

// runE2E runs the full user path: transactions submitted open-loop to
// both nodes (a seeded share to A only), admitted, mined on A,
// compact-relayed to B, connected there, and verified by the light
// client. e2ePhases short phases run on each of the set-ups' fresh,
// identical networks; the latencies and the throughput are medians
// over every phase of each phase's figure.
func runE2E(p params) (*outcome, error) {
	o := newOutcome()
	n := int(e2eRate * p.Seconds / (setupReps * e2ePhases))
	var tr *Tracer
	if p.Trace {
		tr = NewTracer()
		tr.SetEnabled(false)
		zeroLayers(o)
	}
	var (
		segs   segTimes
		phases []*e2ePhase
	)
	e, setup, err := repeatSetup(setupReps, func(rep int) (*e2eNet, error) {
		return setupE2E(p, rep, n*e2ePhases, tr, &segs)
	}, func(rep int, e *e2eNet) error {
		// A traced run traces its last network only; the ones before
		// it are the untraced baseline of the overhead ratio.
		tr.SetEnabled(p.Trace && rep == setupReps-1)
		defer tr.SetEnabled(false)
		for k := 0; k < e2ePhases; k++ {
			ph, err := e.runPhase(o, fmt.Sprintf("network %d phase %d", rep, k), k*n, n)
			if err != nil {
				return err
			}
			phases = append(phases, ph)
		}
		return nil
	}, (*e2eNet).release)
	if err != nil {
		return nil, err
	}
	defer e.release()
	live := heapLiveMB()
	inRate, _ := segs.rates()
	o.Metrics["setup_s"] = setup
	o.Metrics["ibd_inputs_per_s"] = inRate
	o.Meta["chain"] = e.ch.meta()
	o.Meta["fanout_outputs"] = e.fanout
	o.Meta["phases"] = len(phases)
	o.Meta["txs_per_phase"] = n
	o.Meta["offered_rate_tx_s"] = e2eRate
	o.Meta["a_only_share"] = e2eAOnly
	o.Meta["mine_interval_ms"] = ms(e2eMineEvery)

	var p50s, p90s, tputs, cpus, acks, prop, lightLat, late []float64
	var blocks, bRejects int
	var gc gcMark
	for _, ph := range phases {
		p50s, p90s = append(p50s, ph.ack.P50), append(p90s, ph.ack.P90)
		tputs, cpus = append(tputs, ph.throughput), append(cpus, ph.cpu.Seconds())
		acks, prop = append(acks, ph.acks...), append(prop, ph.prop...)
		lightLat, late = append(lightLat, ph.light...), append(late, ph.late...)
		blocks += ph.blocks
		bRejects += ph.bRejects
		gc.cycles += ph.gc.cycles
		gc.pause += ph.gc.pause
	}
	lightSum, propSum, ackSum := Summarize(lightLat), Summarize(prop), Summarize(acks)
	o.Metrics["latency_p50_ms"] = Median(p50s)
	o.Metrics["latency_p90_ms"] = Median(p90s)
	o.Metrics["throughput_per_s"] = Median(tputs)
	o.Metrics["status_mem_bytes"] = float64(e.b.Status.MemUsage())
	o.Metrics["heap_live_mb"] = live
	o.Meta["blocks_mined"] = blocks
	o.Meta["tx_ack"] = ackSum
	o.Meta["tx_ack_p50_by_phase"] = p50s
	o.Meta["tx_ack_p90_by_phase"] = p90s
	o.Meta["light_verify"] = lightSum
	o.Meta["block_prop"] = propSum
	o.Meta["b_late_rejects"] = bRejects
	o.Meta["loadgen_late"] = Summarize(late)

	if p.Trace {
		traced := phases[len(phases)-e2ePhases:]
		tracedBlocks := 0
		for _, ph := range traced {
			tracedBlocks += ph.blocks
		}
		o.Metrics["go.gc_cycles"] = float64(gc.cycles)
		o.Metrics["go.gc_pause_ms"] = float64(gc.pause) / 1e6
		statusLayers(o, e.b)
		e2eLayers(o, e, tracedBlocks, n*e2ePhases, tr)
		o.Metrics["path.tx_ack_p50_ms"] = ackSum.P50
		o.Metrics["path.tx_ack_p90_ms"] = ackSum.P90
		o.Metrics["path.block_prop_p50_ms"] = propSum.P50
		o.Metrics["path.block_prop_p90_ms"] = propSum.P90
		o.Metrics["loadgen.late_p99_ms"] = Percentile(sortedCopy(late), 99)
		// Every phase offers the same number of transactions, so CPU
		// times compare.
		o.Metrics["trace.overhead_ratio"] = perUnit(Median(cpus[len(cpus)-e2ePhases:]), Median(cpus[:len(cpus)-e2ePhases]))
		if err := tr.WriteFile(tracePath(p)); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// runPhase offers the network corpus transactions [from, from+n)
// open-loop, on a fresh submitter connection to each node, while A
// mines; it waits for B and the light client to settle on A's tip and
// checks the outputs. Failed checks go to o, prefixed by what.
func (e *e2eNet) runPhase(o *outcome, what string, from, n int) (*e2ePhase, error) {
	var err error
	if e.subA, err = dialSubmitter(e.addrA, len(e.corpus), nil); err != nil {
		return nil, err
	}
	if e.subB, err = dialSubmitter(e.addrB, len(e.corpus), nil); err != nil {
		return nil, err
	}
	firstHeight, _ := e.a.Chain.TipHeight()
	firstHeight++

	gc, cpu0 := readGC(), cpuTime()
	runtime.GC() // as in admit: collections then fall at the same points
	due := append(make([]time.Duration, from), Schedule(n, e2eRate)...)
	var idxA, idxB []int
	for i := from; i < from+n; i++ {
		idxA = append(idxA, i)
		if !e.aOnly[i] {
			idxB = append(idxB, i)
		}
	}
	lateA, lateB := make([]time.Duration, from+n), make([]time.Duration, from+n)
	start := time.Now()
	var errA, errB error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); errA = e.subA.openLoop(start, due, idxA, lateA, e.corpus) }()
	go func() { defer wg.Done(); errB = e.subB.openLoop(start, due, idxB, lateB, e.corpus) }()

	payee := sig.SimSig{}.KeyFromSeed([]byte(minerSeed))
	stopMine := make(chan struct{})
	type mineResult struct {
		blocks int
		err    error
	}
	mined := make(chan mineResult, 1)
	go func() {
		var r mineResult
		defer func() { mined <- r }()
		tick := time.NewTicker(e2eMineEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopMine:
				return
			case <-tick.C:
			}
			ok, err := e.mineOnce(payee)
			if err != nil {
				r.err = err
				return
			}
			if ok {
				r.blocks++
			}
		}
	}()
	stopMiner := func() mineResult {
		close(stopMine)
		return <-mined
	}

	wg.Wait()
	ph := &e2ePhase{}
	if errA != nil || errB != nil {
		stopMiner()
		return nil, fmt.Errorf("open loop: A %v, B %v", errA, errB)
	}
	e.subA.waitAcks(ackTimeout)
	e.subB.waitAcks(ackTimeout)
	// Let the miner empty A's pool, then wait for B and the light
	// client to reach A's tip.
	settled := false
	for deadline := time.Now().Add(e2eDrain); !settled && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		tipA, _ := e.a.Chain.TipHeight()
		tipB, _ := e.b.Chain.TipHeight()
		settled = e.a.Pool.Len() == 0 && tipA == tipB && e.lc.Stats().TipHeight == tipA && e.lightDone(firstHeight, tipA)
	}
	mr := stopMiner()
	if mr.err != nil {
		return nil, fmt.Errorf("mine: %w", mr.err)
	}
	ph.blocks = mr.blocks
	ph.cpu = cpuTime() - cpu0
	now := readGC()
	ph.gc = gcMark{now.cycles - gc.cycles, now.pause - gc.pause}
	e.subA.close()
	e.subB.close()

	// Per-block latencies from A's SubmitLocal call.
	e.mu.Lock()
	var lastAtB time.Time
	for h, t0 := range e.submitAt {
		if h < firstHeight {
			continue // an earlier phase's
		}
		if t, ok := e.atB[h]; ok {
			ph.prop = append(ph.prop, ms(t.Sub(t0)))
			if t.After(lastAtB) {
				lastAtB = t
			}
		}
		if t, ok := e.atLight[h]; ok {
			ph.light = append(ph.light, ms(t.Sub(t0)))
		}
	}
	e.mu.Unlock()

	// Output checks.
	o.Attempted += n + ph.blocks
	if !settled {
		o.problem("%s: network did not settle within %v of the last send", what, e2eDrain)
	}
	tipA, tipB := e.a.Chain.TipHash(), e.b.Chain.TipHash()
	if tipA != tipB {
		o.problem("%s: tips differ: A %s, B %s", what, tipA.Short(), tipB.Short())
	}
	if ua, ub := e.a.Status.UnspentCount(), e.b.Status.UnspentCount(); ua != ub {
		o.problem("%s: unspent differs: A %d, B %d", what, ua, ub)
	}
	if ma, mb := e.a.Status.MemUsage(), e.b.Status.MemUsage(); ma != mb {
		o.problem("%s: status memory differs: A %d, B %d", what, ma, mb)
	}
	for name, nd := range map[string]*node.EBVNode{"A": e.a, "B": e.b} {
		if err := nd.Status.CheckInvariants(); err != nil {
			o.problem("%s: %s status invariants: %v", what, name, err)
		}
	}
	st := e.lc.Stats()
	if missed := ph.blocks - len(ph.light); missed != 0 || st.VerifyFailures != 0 || st.FullBlockDownloads != 0 {
		ls := e.gb.LightStats()
		o.problem("%s: light client: %d of %d mined blocks unverified (heights %v), %d verify failures, %d full-block downloads; B sent %d notifications (%d dropped), client got %d",
			what, missed, ph.blocks, e.unverified(), st.VerifyFailures, st.FullBlockDownloads, ls.Notifies, ls.Dropped, st.SubUpdates)
		o.Failed += max(missed, 0) + int(st.VerifyFailures)
	}
	if missed := ph.blocks - len(ph.prop); missed != 0 {
		o.problem("%s: %d of %d mined blocks never reached B", what, missed, ph.blocks)
		o.Failed += max(missed, 0)
	}
	inChain, err := spentOnChain(e.b, firstHeight)
	if err != nil {
		return nil, err
	}
	txFailed := 0
	for i := from; i < from+n; i++ {
		tx, err := txmodel.DecodeEBVTx(e.corpus[i])
		if err != nil {
			return nil, err
		}
		_, confirmed := inChain[tx.Tidy.InputHashes[0]]
		bad := !confirmed || !e.subA.acked[i] || e.subA.codes[i] != admission.CodeOK
		if e.subA.acked[i] {
			ph.acks = append(ph.acks, ms(e.subA.at[i].Sub(start.Add(due[i]))))
		}
		if !e.aOnly[i] {
			if !e.subB.acked[i] {
				bad = true
			} else {
				ph.acks = append(ph.acks, ms(e.subB.at[i].Sub(start.Add(due[i]))))
				// B refuses a transaction that reached it after the block
				// that confirms it: confirmed, so not a failure.
				if e.subB.codes[i] != admission.CodeOK {
					ph.bRejects++
				}
			}
		}
		if bad {
			txFailed++
		}
	}
	if txFailed > 0 {
		o.problem("%s: %d of %d transactions not admitted by A, unacked, or not in a block on B", what, txFailed, n)
	}
	o.Failed += txFailed
	ph.ack = Summarize(append([]float64(nil), ph.acks...))
	ph.throughput = float64(len(inChain)) / lastAtB.Sub(start).Seconds()
	for i := from; i < from+n; i++ {
		ph.late = append(ph.late, ms(lateA[i]))
		if !e.aOnly[i] {
			ph.late = append(ph.late, ms(lateB[i]))
		}
	}
	return ph, nil
}

// unverified lists the mined heights the light client has not
// verified.
func (e *e2eNet) unverified() []uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []uint64
	for h := range e.submitAt {
		if _, ok := e.atLight[h]; !ok {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// lightDone reports whether the light client verified every block from
// first to tip.
func (e *e2eNet) lightDone(first, tip uint64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for h := first; h <= tip; h++ {
		if _, ok := e.atLight[h]; !ok {
			return false
		}
	}
	return true
}

// spentOnChain returns the input hashes of every transaction in n's
// blocks from height first to its tip.
func spentOnChain(n *node.EBVNode, first uint64) (map[hashx.Hash]struct{}, error) {
	out := make(map[hashx.Hash]struct{})
	tip, ok := n.Chain.TipHeight()
	for h := first; ok && h <= tip; h++ {
		raw, err := n.Chain.BlockBytes(h)
		if err != nil {
			return nil, err
		}
		blk, err := blockmodel.DecodeEBVBlock(raw)
		if err != nil {
			return nil, err
		}
		for _, tx := range blk.Txs {
			for _, ih := range tx.Tidy.InputHashes {
				out[ih] = struct{}{}
			}
		}
	}
	return out, nil
}

// e2eLayers records the per-layer metrics of a traced e2e run.
func e2eLayers(o *outcome, e *e2eNet, blocks, n int, tr *Tracer) {
	st := SelfTimes(tr.Spans())
	get := func(name string) *LayerTime {
		if lt := st[name]; lt != nil {
			return lt
		}
		return &LayerTime{}
	}
	e.mu.Lock()
	connects, bd := e.connects, e.bds
	e.mu.Unlock()
	var total time.Duration
	for _, d := range connects {
		total += d
	}
	inputs := float64(bd.Inputs)
	o.Metrics["core.connect_ms_per_block"] = perUnit(ms(total), float64(len(connects)))
	o.Metrics["core.connect_ns_per_input"] = perUnit(float64(total), inputs)
	o.Metrics["core.ev_ns_per_input"] = perUnit(float64(bd.EV), inputs)
	o.Metrics["core.sv_ns_per_input"] = perUnit(float64(bd.SV), inputs)
	o.Metrics["core.uv_ns_per_input"] = perUnit(float64(bd.UV), inputs)
	o.Metrics["core.other_ns_per_input"] = perUnit(float64(bd.Other+bd.DBO), inputs)
	o.Metrics["mempool.template_ms"] = Median(get("mempool.template").Durs)
	o.Metrics["p2p.submit_local_ms"] = Median(get("p2p.submit_local").Durs)

	var blockBytes, tx float64
	for _, g := range []*p2p.Node{e.ga, e.gb} {
		ks := g.KindStats()
		for _, k := range []byte{wire.CmpctBlock, wire.GetBlockTxn, wire.BlockTxn, wire.Block} {
			blockBytes += float64(ks[k].BytesOut)
		}
	}
	o.Metrics["p2p.bytes_per_block"] = perUnit(blockBytes, float64(blocks))
	tx = txBytes(e.ga) + txBytes(e.gb)
	o.Metrics["p2p.bytes_per_tx"] = perUnit(tx, float64(n))

	rs := e.gb.RelayStats()
	o.Metrics["relay.reconstructed_ratio"] = perUnit(float64(rs.Reconstructed), float64(rs.CompactReceived))
	o.Metrics["relay.txns_requested_per_block"] = perUnit(float64(rs.TxnsRequested), float64(rs.CompactReceived))
	o.Metrics["relay.fallbacks"] = float64(rs.Fallbacks)
	// B's cache also counts the misses of its own admission, which is
	// what fills it; the ratio that matters is on B's block connects.
	o.Metrics["vcache.hit_ratio"] = perUnit(float64(bd.CacheHits), float64(bd.CacheHits+bd.CacheMisses))
	var ast, bst = e.a.Admission.Stats(), e.b.Admission.Stats()
	o.Metrics["admission.mean_batch_txs"] = perUnit(float64(ast.BatchTxs+bst.BatchTxs), float64(ast.Batches+bst.Batches))
	ls := e.lc.Stats()
	o.Metrics["light.verify_ms_per_block"] = perUnit(float64(ls.VerifyNanos)/1e6, float64(ls.BlocksVerified))
	o.Metrics["light.push_to_verify_ms"] = perUnit(float64(ls.PushToVerifyNanos)/1e6, float64(ls.BlocksVerified))
	o.Metrics["light.full_block_downloads"] = float64(ls.FullBlockDownloads)
	o.Metrics["light.match_us_per_block"] = perUnit(float64(e.gb.LightStats().MatchNanos)/1e3, float64(blocks))
}
