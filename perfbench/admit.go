package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ebv/internal/admission"
	"ebv/internal/loadgen"
	"ebv/internal/node"
	"ebv/internal/p2p"
	"ebv/internal/p2p/wire"
	"ebv/internal/sig"
)

// Admit sizing. The closed loop finds a knee of ~30k tx/s with two
// connections on a 2-CPU host. At 8000 tx/s the open loop's p90 swung
// by half from run to run, with the collections of the growing mempool
// heap and scheduler stalls; at this rate it reads the admission path
// rather than those. The open-loop time is cut into short loops, each
// started from a forced collection, and latency_p50_ms is the median
// over them: a stretch of host stalls then moves the loops it falls
// in, not the result. Each closed loop sends a fixed count, which
// bounds the corpus — and the heap that holds it and the mempool. Its
// window keeps every connection's in-flight submissions below the
// admission queue depth (1024 by default), so nothing is refused for a
// full queue.
const (
	admitOpenRate = 4000  // tx/s offered in the open-loop phase
	admitOpenFrac = 0.625 // share of the measured seconds the open loops run, over all nodes
	admitClosedN  = 40000 // transactions each closed loop sends
	admitWindow   = 256   // in-flight submissions per connection, closed loop
	admitOpenRuns = 3     // open loops per node, each from a forced collection
	ackTimeout    = 15 * time.Second
)

// admitNode is one gossip node holding the corpus it will be sent.
type admitNode struct {
	ch     *genChain
	n      *node.EBVNode
	gn     *p2p.Node
	addr   string
	dir    string
	corpus [][]byte
	unmap  func() // releases the corpus mapping
	fanout int
}

func (a *admitNode) release() {
	if a == nil {
		return
	}
	if a.gn != nil {
		a.gn.Close()
	}
	if a.n != nil {
		a.n.Close()
	}
	if a.unmap != nil {
		a.unmap()
	}
	os.RemoveAll(a.dir)
	a.ch.release()
}

// corpusBytes is the encoded size of corpus: what the mempool's byte
// cap must hold.
func corpusBytes(corpus [][]byte) int {
	t := 0
	for _, tx := range corpus {
		t += len(tx)
	}
	return t
}

// setupAdmit generates the chain, imports it into one ebvgossip node,
// fans out enough outputs for want transactions, signs the corpus and
// starts the node's p2p listener. The import's timings go to segs.
func setupAdmit(p params, rep, want int, segs *segTimes) (a *admitNode, err error) {
	a = &admitNode{dir: subdir(p, fmt.Sprintf("node-%d", rep))}
	defer func() {
		if err != nil {
			a.release()
			a = nil
		}
	}()
	if a.ch, err = generateChain(subdir(p, fmt.Sprintf("chain-%d", rep)), p.Seed); err != nil {
		return
	}
	// Pool caps are sized from the corpus, which does not exist until
	// the node has imported the chain; count and bytes use generous
	// per-transaction bounds and are checked below.
	if a.n, err = openImported(a.dir, a.ch, want+1024, want*4096, segs); err != nil {
		return
	}
	var fan [][]byte
	if fan, a.fanout, err = buildFanout(a.n.Chain, want-a.ch.utxos/2, p.Seed); err != nil {
		return
	}
	if err = connectAll(a.n, fan); err != nil {
		return
	}
	if a.corpus, err = loadgen.Prepare(a.n.Chain, sig.SimSig{}, want, corpusFee); err != nil {
		return
	}
	if len(a.corpus) < want || corpusBytes(a.corpus) > want*4096 {
		return a, fmt.Errorf("corpus of %d transactions, %d bytes does not fit want %d", len(a.corpus), corpusBytes(a.corpus), want)
	}
	if a.corpus, a.unmap, err = offHeap(filepath.Join(a.dir, "corpus"), a.corpus); err != nil {
		return
	}
	a.ch.release() // the node holds its own copy from here on
	a.gn, a.addr, err = startGossip(a.n, gossipOptions{})
	return
}

// admitPhase is what the measured work on one node recorded:
// admitOpenRuns open loops, then one closed loop.
type admitPhase struct {
	acks       []Summary // per open loop: submit → txack from the due time, admitted txs
	openLat    []float64 // the samples of every open loop, ms
	late       []float64 // open-loop send lateness, ms
	closedWall float64   // closed loop: first send to last ack, s
	closedRate float64   // closed loop: admitted txs per second
	inLat      []float64 // in-process submissions (traced phase only), ms
	gc         gcMark    // collections during the phase
}

// runAdmit drives one node's admission path over localhost TCP: an
// open loop at a fixed rate, then a closed loop that keeps a window of
// submissions in flight per connection. The work is repeated on each
// of the set-ups' fresh, identical nodes. The latencies are medians
// over every open loop of each loop's percentile; the closed-loop rate
// is the median over the nodes.
func runAdmit(p params) (*outcome, error) {
	o := newOutcome()
	conns := runtime.NumCPU()
	openN := int(admitOpenRate*admitOpenFrac*p.Seconds/(setupReps*admitOpenRuns)) * admitOpenRuns
	inproc := 0
	var tr *Tracer
	if p.Trace {
		inproc = openN / 4
		tr = NewTracer()
		tr.SetEnabled(false)
		zeroLayers(o)
	}
	want := openN + inproc + admitClosedN

	var (
		segs   segTimes
		phases []*admitPhase
	)
	a, setup, err := repeatSetup(setupReps, func(rep int) (*admitNode, error) {
		return setupAdmit(p, rep, want, &segs)
	}, func(rep int, a *admitNode) error {
		// A traced run traces its last node only; the ones before it
		// are the untraced baseline of the overhead ratio.
		tr.SetEnabled(p.Trace && rep == setupReps-1)
		defer tr.SetEnabled(false)
		ph, err := admitOnce(o, fmt.Sprintf("node %d", rep), a, tr, conns, openN, inproc)
		if ph != nil {
			phases = append(phases, ph)
		}
		return err
	}, (*admitNode).release)
	if err != nil {
		return nil, err
	}
	defer a.release()
	live := heapLiveMB()
	inRate, _ := segs.rates()
	o.Metrics["setup_s"] = setup
	o.Metrics["ibd_inputs_per_s"] = inRate
	o.Meta["chain"] = a.ch.meta()
	o.Meta["fanout_outputs"] = a.fanout
	o.Meta["corpus"] = len(a.corpus)
	o.Meta["nodes"] = len(phases)
	o.Meta["open_rate_tx_s"] = admitOpenRate
	o.Meta["open_txs_per_node"] = openN
	o.Meta["open_loops_per_node"] = admitOpenRuns
	o.Meta["closed_txs"] = admitClosedN
	o.Meta["closed_window_per_conn"] = admitWindow
	o.Meta["connections"] = conns

	var p50s, p90s, rates, walls, allLat, allLate []float64
	var gc gcMark
	for _, ph := range phases {
		for _, s := range ph.acks {
			p50s, p90s = append(p50s, s.P50), append(p90s, s.P90)
		}
		rates, walls = append(rates, ph.closedRate), append(walls, ph.closedWall)
		allLat, allLate = append(allLat, ph.openLat...), append(allLate, ph.late...)
		gc.cycles += ph.gc.cycles
		gc.pause += ph.gc.pause
	}
	ackSum := Summarize(allLat)
	o.Metrics["latency_p50_ms"] = Median(p50s)
	o.Metrics["latency_p90_ms"] = Median(p90s)
	o.Metrics["throughput_per_s"] = Median(rates)
	o.Metrics["status_mem_bytes"] = float64(a.n.Status.MemUsage())
	o.Metrics["heap_live_mb"] = live
	o.Meta["tx_ack"] = ackSum
	o.Meta["tx_ack_p50_by_phase"] = p50s
	o.Meta["tx_ack_p90_by_phase"] = p90s
	o.Meta["closed_tx_per_s_by_node"] = rates
	o.Meta["loadgen_late"] = Summarize(allLate)

	if p.Trace {
		last := phases[len(phases)-1]
		o.Metrics["go.gc_cycles"] = float64(gc.cycles)
		o.Metrics["go.gc_pause_ms"] = float64(gc.pause) / 1e6
		statusLayers(o, a.n)
		st := a.n.Admission.Stats()
		o.Metrics["admission.mean_batch_txs"] = perUnit(float64(st.BatchTxs), float64(st.Batches))
		o.Metrics["admission.submit_us_p50"] = Summarize(last.inLat).P50 * 1e3
		o.Metrics["p2p.bytes_per_tx"] = perUnit(txBytes(a.gn), float64(openN+admitClosedN))
		o.Metrics["path.tx_ack_p50_ms"] = ackSum.P50
		o.Metrics["path.tx_ack_p90_ms"] = ackSum.P90
		o.Metrics["loadgen.late_p99_ms"] = Percentile(sortedCopy(allLate), 99)
		// Every closed loop sends the same count, so walls compare.
		o.Metrics["trace.overhead_ratio"] = perUnit(last.closedWall, Median(walls[:len(walls)-1]))
		if err := tr.WriteFile(tracePath(p)); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// admitOnce runs the open loops and then the closed loop against a's
// node, and on a traced node the in-process submissions between them.
// Failed output checks go to o, prefixed by what.
func admitOnce(o *outcome, what string, a *admitNode, tr *Tracer, conns, openN, inproc int) (*admitPhase, error) {
	subs := make([]*submitter, conns)
	slots := make([]chan struct{}, conns)
	for c := range subs {
		slots[c] = make(chan struct{}, admitWindow)
		win := slots[c]
		var err error
		subs[c], err = dialSubmitter(a.addr, len(a.corpus), func(k ack) {
			if tr.Enabled() {
				tr.BeginAt("tx.submit", k.hash.String(), 0, k.sent).EndAt(k.at)
			}
			select {
			case <-win:
			default: // an open-loop send holds no slot
			}
		})
		if err != nil {
			for _, s := range subs[:c] {
				s.close()
			}
			return nil, err
		}
	}
	closed := false
	closeAll := func() {
		if !closed {
			for _, s := range subs {
				s.close()
			}
			closed = true
		}
	}
	defer closeAll()

	// Each loop starts right after a forced collection. The loops
	// allocate at a fixed pace, so the collections inside them then
	// fall at the same points on every run instead of wherever the
	// set-up left the collector.
	gc := readGC()
	// Open loops: admitOpenRuns equal runs of the first openN
	// transactions; in each, transaction i goes out on connection
	// i%conns at its fixed due time from that loop's start.
	m := openN / admitOpenRuns
	due := make([]time.Duration, openN)
	late := make([]time.Duration, openN)
	starts := make([]time.Time, admitOpenRuns)
	sendErr := make([]error, conns)
	// A lost connection or a stalled window is the program's failure:
	// it ends the node's work and is reported, and every transaction
	// left unacked counts as failed.
	sendFailed := func(loop string) bool {
		for c, err := range sendErr {
			if err != nil {
				o.problem("%s: %s loop, connection %d: %v", what, loop, c, err)
				return true
			}
		}
		return false
	}
	broken := false
	var wg sync.WaitGroup
	for k := range starts {
		lo, hi := k*m, (k+1)*m
		copy(due[lo:hi], Schedule(m, admitOpenRate))
		runtime.GC()
		starts[k] = time.Now()
		for c := range subs {
			var idx []int
			for i := lo + c; i < hi; i += conns {
				idx = append(idx, i)
			}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				sendErr[c] = subs[c].openLoop(starts[k], due, idx, late, a.corpus)
			}(c)
		}
		wg.Wait()
		for _, s := range subs {
			s.waitAcks(ackTimeout)
		}
		if broken = sendFailed("open"); broken {
			break
		}
	}

	ph := &admitPhase{}
	first := openN
	if !broken && tr.Enabled() {
		ph.inLat = inProcessPhase(o, what, a, tr, openN, inproc)
		first += inproc
	}

	// Closed loop: each connection keeps admitWindow submissions in
	// flight until the fixed count is sent. A sender stops when it
	// waits ackTimeout for a slot or loses its connection.
	end := first + admitClosedN
	closedStart := time.Now()
	if !broken {
		var cursor atomic.Int64
		cursor.Store(int64(first))
		runtime.GC()
		closedStart = time.Now()
		for c := range subs {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					if sendErr[c] = waitSlot(slots[c], subs[c], ackTimeout); sendErr[c] != nil {
						return
					}
					i := int(cursor.Add(1)) - 1
					if i >= end {
						return
					}
					if sendErr[c] = subs[c].send(i, a.corpus[i]); sendErr[c] != nil {
						return
					}
				}
			}(c)
		}
		wg.Wait()
		for _, s := range subs {
			s.waitAcks(ackTimeout)
		}
		sendFailed("closed")
	}
	closeAll()
	now := readGC()
	ph.gc = gcMark{now.cycles - gc.cycles, now.pause - gc.pause}

	// Merge the per-connection logs. Output checks: every transaction
	// sent is acked as admitted, and the pool holds exactly those.
	admitted := len(ph.inLat)
	attempted, failed := 0, 0
	openLat := make([][]float64, admitOpenRuns)
	var closedEnd time.Time
	for i := 0; i < end; i++ {
		if i >= openN && i < first {
			continue // submitted in process
		}
		var s *submitter
		for _, sc := range subs {
			if sc.acked[i] {
				s = sc
			}
		}
		attempted++
		if s == nil || s.codes[i] != admission.CodeOK {
			failed++
			continue
		}
		admitted++
		if i < openN {
			k := i / m
			openLat[k] = append(openLat[k], ms(s.at[i].Sub(starts[k].Add(due[i]))))
		} else if s.at[i].After(closedEnd) {
			closedEnd = s.at[i]
		}
	}
	o.Attempted += attempted
	o.Failed += failed
	if failed > 0 {
		o.problem("%s: %d of %d transactions not acked as admitted", what, failed, attempted)
	}
	if got := a.n.Pool.Len(); got != admitted {
		o.problem("%s: pool holds %d transactions, %d were admitted", what, got, admitted)
	}
	for _, lat := range openLat {
		ph.openLat = append(ph.openLat, lat...)
		ph.acks = append(ph.acks, Summarize(lat))
	}
	if closedEnd.After(closedStart) {
		ph.closedWall = closedEnd.Sub(closedStart).Seconds()
	}
	ph.closedRate = perUnit(float64(admitted-len(ph.inLat)-len(ph.openLat)), ph.closedWall)
	ph.late = make([]float64, openN)
	for i, d := range late {
		ph.late[i] = ms(d)
	}
	return ph, nil
}

// waitSlot takes one of s's closed-loop window slots, failing if the
// connection ends or no ack frees a slot within timeout.
func waitSlot(slots chan struct{}, s *submitter, timeout time.Duration) error {
	select {
	case slots <- struct{}{}:
		return nil
	default:
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case slots <- struct{}{}:
		return nil
	case <-s.done:
		return fmt.Errorf("connection closed: %v", s.err)
	case <-t.C:
		return fmt.Errorf("no ack freed a window slot in %v", timeout)
	}
}

// txBytes sums a node's submission traffic in both directions.
func txBytes(gn *p2p.Node) float64 {
	ks := gn.KindStats()
	t := 0.0
	for _, k := range []byte{wire.Tx, wire.TxAck} {
		t += float64(ks[k].BytesIn + ks[k].BytesOut)
	}
	return t
}

// inProcessPhase (traced runs only) submits corpus transactions
// [from, from+n) straight into the node's admission.Service at the
// open-loop rate — no TCP — with a span from each one's due time to
// its verdict. The gap to the TCP acks is p2p and wire time. It
// returns the admitted transactions' latencies (ms) and counts the
// rest as failures in o.
func inProcessPhase(o *outcome, what string, a *admitNode, tr *Tracer, from, n int) []float64 {
	due := Schedule(n, admitOpenRate)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var (
		mu     sync.Mutex
		lat    []float64
		failed int
		wg     sync.WaitGroup
	)
	start := time.Now()
	wg.Add(n)
	_ = Pace(start, due, idx, make([]time.Duration, n), func(i int) error {
		at := start.Add(due[i])
		sp := tr.BeginAt("admission.submit", "", 0, at)
		a.n.Admission.SubmitAsync("perfbench", a.corpus[from+i], func(r admission.Result) {
			sp.End()
			mu.Lock()
			if r.Code == admission.CodeOK {
				lat = append(lat, ms(time.Since(at)))
			} else {
				failed++
			}
			mu.Unlock()
			wg.Done()
		})
		return nil
	})
	wg.Wait()
	o.Attempted += n
	o.Failed += failed
	if failed > 0 {
		o.problem("%s: %d of %d in-process submissions not admitted", what, failed, n)
	}
	return lat
}
