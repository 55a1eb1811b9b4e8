package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/hashx"
	"ebv/internal/ingest"
	"ebv/internal/statusdb"
	"ebv/internal/txmodel"
)

// This file is the EBV validation kernel: the one implementation of
// the paper's input-checking rules (§IV-D/E) that every entry point
// calls — ConnectBlock, the cross-block pipeline's Preverify and
// ConnectPreverified, mempool admission (ValidateTx, ValidateTxsBatch)
// and the light client (VerifyStateless). It has two halves:
//
//   - the per-tx verifier (verifyTx, verifyInput): consistency binding,
//     sighash, and per-input EV + SV, verified-proof-cache aware. It
//     reads only the immutable header chain and the proof bytes the
//     transaction carries, so any number of calls run concurrently on
//     runWorkers' pool.
//   - the ordered reducer (reduceTx, reduceBlock): duplicate spends,
//     the EV verdict, the UV verdict, the SV verdict, coinbase maturity
//     at a given height, input and output overflow, value conservation
//     and, for blocks, the subsidy rule — scanned in transaction and
//     input order, so the first failure and its text never depend on
//     how the verifier was scheduled.
//
// The reducer's UV input is an oracle (uvProbes): the status
// database's batched probe on a full node, or none on a light client —
// Dietcoin's framing of a light client as full verification minus
// state. Each rule's message is formatted once, here or in evInput;
// entry points add only a "tx N: " prefix.
//
// Determinism: runWorkers guarantees that every task index at or
// below the lowest failing index ran to completion, so the reducer —
// which stops at the first failure — always reaches the same error
// for the same block, however the goroutines were scheduled.

// runWorkers executes fn(0) … fn(n-1) on up to workers goroutines.
// Tasks are claimed in strictly increasing index order. When fn
// returns false the pool is cancelled past that index: cancelAt only
// ever decreases (CAS-min), a claimed task always runs to completion,
// and a task is skipped only when its index exceeds cancelAt at claim
// time. Since the final cancelAt is the minimum failing index F, every
// index <= F has a complete result when runWorkers returns — the
// property the callers' deterministic minimum-index error selection
// rests on. workers <= 1 degenerates to a sequential loop with early
// exit, sharing the code path so both modes behave identically.
func runWorkers(workers, n int, fn func(i int) bool) {
	// Single-task or single-worker calls run inline on the calling
	// goroutine: no goroutines, no WaitGroup, no atomics — a
	// one-transaction block pays nothing for the pool machinery.
	if n <= 1 || workers <= 1 {
		for i := 0; i < n; i++ {
			if !fn(i) {
				return
			}
		}
		return
	}
	if workers > n {
		workers = n
	}
	var (
		next     atomic.Int64
		cancelAt atomic.Int64
		wg       sync.WaitGroup
	)
	cancelAt.Store(int64(n))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) || i > cancelAt.Load() {
					return
				}
				if !fn(int(i)) {
					for {
						cur := cancelAt.Load()
						if i >= cur || cancelAt.CompareAndSwap(cur, i) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// cacheOutcome is one input's verified-proof cache probe result.
type cacheOutcome uint8

const (
	cacheOff  cacheOutcome = iota // no cache, or no stored header to key on
	cacheHit                      // EV and SV skipped
	cacheMiss                     // verified in full
)

// inputVerdict is one input's verifier result: the spent output EV
// extracted, the EV and SV errors (SV is skipped when EV fails — there
// is no locking script to run), the cache outcome, and the time each
// phase took.
type inputVerdict struct {
	out    *txmodel.TxOut
	evErr  error
	svErr  error
	cache  cacheOutcome
	ev, sv time.Duration
}

// txVerdict is one transaction's verifier result. Inputs after the
// first failing one stay unverified: the reducer never looks past it.
type txVerdict struct {
	done     bool // the verifier ran; a cancelled pool skips past a failure
	coinbase bool
	consErr  error
	inputs   []inputVerdict
	other    time.Duration // consistency + sighash time
}

// verdictSlab is the verdict storage for one block or admission batch:
// one txVerdict per transaction and one flat inputVerdict run carved
// into disjoint per-transaction windows, so workers never share a
// slot. Slabs cycle through slabPool, which keeps a warm connect from
// allocating verdicts per transaction.
type verdictSlab struct {
	txs    []txVerdict
	inputs []inputVerdict
}

var slabPool = sync.Pool{New: func() any { return new(verdictSlab) }}

// takeSlab returns zeroed verdict storage shaped to txs.
func takeSlab(txs []*txmodel.EBVTx) *verdictSlab {
	s := slabPool.Get().(*verdictSlab)
	n := 0
	for _, tx := range txs {
		n += len(tx.Bodies)
	}
	if cap(s.txs) < len(txs) {
		s.txs = make([]txVerdict, len(txs))
	}
	if cap(s.inputs) < n {
		s.inputs = make([]inputVerdict, n)
	}
	s.txs, s.inputs = s.txs[:len(txs)], s.inputs[:n]
	off := 0
	for i, tx := range txs {
		end := off + len(tx.Bodies)
		s.txs[i].inputs = s.inputs[off:end:end]
		off = end
	}
	return s
}

// release zeroes the slab — dropping its references into the block —
// and returns it to the pool.
func (s *verdictSlab) release() {
	clear(s.txs)
	clear(s.inputs)
	slabPool.Put(s)
}

// verifyTx is the per-tx verifier: consistency binding, sighash, and
// verifyInput for each input up to the first failure. It fills tv and
// reports whether everything passed; false cancels a block's pool past
// this transaction.
func (v *EBVValidator) verifyTx(tx *txmodel.EBVTx, tv *txVerdict) bool {
	tv.done = true
	w := newStopwatch()
	if tx.Tidy.IsCoinbase() {
		tv.coinbase = true
		w.lap(&tv.other)
		return false
	}
	if err := tx.Consistent(); err != nil {
		tv.consErr = err
		w.lap(&tv.other)
		return false
	}
	sigHash := tx.SigHash()
	w.lap(&tv.other)
	for bi := range tx.Bodies {
		if !v.verifyInput(&tx.Bodies[bi], sigHash, &tv.inputs[bi], &w) {
			return false
		}
	}
	return true
}

// verifyInput is the per-input EV + SV step: fold the carried Merkle
// branch to the stored header (evInput), then run the unlocking script
// against the ELs-carried locking script. With a verification cache, a
// hit stands in for both and a clean uncached check inserts its key —
// which is how mempool admission pre-warms block validation. The cache
// is concurrency-safe, so workers probe and insert without
// coordination. The key never asserts unspentness: UV always runs live
// in the reducer. w, running since the previous step, times the EV
// and SV phases.
func (v *EBVValidator) verifyInput(body *txmodel.InputBody, sigHash hashx.Hash, iv *inputVerdict, w *stopwatch) bool {
	key, keyOK := v.cacheKey(body, sigHash)
	if keyOK {
		hit := v.vcache.Contains(key)
		if hit {
			iv.out, hit = body.SpentOutput()
		}
		if hit {
			w.lap(&iv.ev)
			iv.cache = cacheHit
			return true
		}
		iv.cache = cacheMiss
	}
	iv.out, iv.evErr = v.evInput(body)
	w.lap(&iv.ev)
	if iv.evErr != nil {
		return false
	}
	if err := v.engine.Execute(body.UnlockScript, iv.out.LockScript, sigHash); err != nil {
		iv.svErr = fmt.Errorf("%w: %v", ErrScriptFailed, err)
	}
	w.lap(&iv.sv)
	if iv.svErr != nil {
		return false
	}
	if keyOK {
		v.vcache.Add(key)
	}
	return true
}

// uvProbes is the reducer's UV oracle: one answer per spend, in scan
// order. Nothing mutates the status database between a block's probes
// and its commit, so probing everything up front in one batch returns
// exactly what per-input probes at scan time would. A nil res is no
// oracle — the light client's view, which cannot see spentness.
type uvProbes struct {
	spends []statusdb.Spend
	res    []statusdb.ProbeResult
}

// check returns spend i's UV verdict.
func (p uvProbes) check(i int) error {
	if p.res == nil {
		return nil
	}
	r := p.res[i]
	if r.Err != nil {
		return fmt.Errorf("%w: %w", ErrBadProof, r.Err)
	}
	if !r.Unspent {
		return fmt.Errorf("%w: height %d position %d", ErrSpentOutput, p.spends[i].Height, p.spends[i].Pos)
	}
	return nil
}

// probeUV is the full node's UV oracle: one batched, shard-grouped
// status-database probe for spends, into the scratch's result buffer.
func (v *EBVValidator) probeUV(spends []statusdb.Spend, s *ingest.Scratch) uvProbes {
	res, _, _ := v.status.IsUnspentBatchInto(spends, s.Probes(len(spends)))
	return uvProbes{spends, res}
}

// collectSpends flattens the spends of txs in the reducer's scan order
// into the scratch's spend buffer.
func collectSpends(txs []*txmodel.EBVTx, s *ingest.Scratch) []statusdb.Spend {
	n := 0
	for _, tx := range txs {
		n += len(tx.Bodies)
	}
	spends := s.Spends(n)
	for _, tx := range txs {
		for bi := range tx.Bodies {
			body := &tx.Bodies[bi]
			spends = append(spends, statusdb.Spend{Height: body.Height, Pos: body.AbsPosition()})
		}
	}
	return spends
}

// reduceTx is the ordered reducer for one non-coinbase transaction
// judged at height. Per input, in order: duplicate spend (against
// seen, which spans the block or just this transaction), the EV
// verdict, the UV verdict (uv answers this transaction's inputs from
// idx on), the SV verdict and coinbase maturity; input values are
// summed with overflow detection. Then output overflow and value
// conservation. It returns the fee.
func reduceTx(tx *txmodel.EBVTx, tv *txVerdict, height uint64, uv uvProbes, idx int, seen map[statusdb.Spend]struct{}) (uint64, error) {
	if tv.consErr != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadProof, tv.consErr)
	}
	var inSum uint64
	for bi := range tx.Bodies {
		body, iv, sp := &tx.Bodies[bi], &tv.inputs[bi], uv.spends[idx+bi]
		_, dup := seen[sp]
		seen[sp] = struct{}{}
		var err error
		switch {
		case dup:
			err = fmt.Errorf("%w: height %d position %d", ErrDuplicateSpend, sp.Height, sp.Pos)
		case iv.evErr != nil:
			err = iv.evErr
		default:
			if err = uv.check(idx + bi); err == nil {
				err = iv.svErr
			}
			if err == nil && body.PrevTx.IsCoinbase() && height-body.Height < txmodel.CoinbaseMaturity {
				err = ErrImmature
			}
		}
		if err == nil && inSum+iv.out.Value < inSum {
			err = fmt.Errorf("%w: inputs", ErrOverflow)
		}
		if err != nil {
			return 0, fmt.Errorf("input %d: %w", bi, err)
		}
		inSum += iv.out.Value
	}
	outSum, ok := tx.OutputSum()
	if !ok {
		return 0, fmt.Errorf("%w: outputs", ErrOverflow)
	}
	if outSum > inSum {
		return 0, fmt.Errorf("%w: spends %d, creates %d", ErrValueImbalance, inSum, outSum)
	}
	return inSum - outSum, nil
}

// reduceBlock is the ordered reducer for a block: every non-coinbase
// transaction through reduceTx at the block's height, duplicates
// detected across the whole block, then the fee total and the coinbase
// subsidy rule. uv answers the spends of b.Txs[1:] in order.
func reduceBlock(b *blockmodel.EBVBlock, tvs []txVerdict, uv uvProbes, seen map[statusdb.Spend]struct{}) error {
	var totalFees uint64
	idx := 0
	for ti := 1; ti < len(b.Txs); ti++ {
		tx, tv := b.Txs[ti], &tvs[ti]
		var fee uint64
		var err error
		switch {
		case !tv.done:
			err = fmt.Errorf("%w: skipped by cancelled pool", ErrInvalidBlock)
		case tv.coinbase:
			err = ErrExtraCoinbase
		default:
			fee, err = reduceTx(tx, tv, b.Header.Height, uv, idx, seen)
		}
		if err != nil {
			return fmt.Errorf("tx %d: %w", ti, err)
		}
		idx += len(tx.Bodies)
		if totalFees+fee < totalFees {
			return fmt.Errorf("%w: fees", ErrOverflow)
		}
		totalFees += fee
	}
	cbSum, ok := b.Txs[0].OutputSum()
	if !ok {
		return fmt.Errorf("%w: coinbase", ErrOverflow)
	}
	if allowed := blockmodel.Subsidy(b.Header.Height) + totalFees; cbSum > allowed {
		return fmt.Errorf("%w: claims %d, allowed %d", ErrBadSubsidy, cbSum, allowed)
	}
	return nil
}

// Preverified carries stage A's output for one block: the structure
// verdict's bookkeeping plus one verifier verdict per transaction,
// ready for the ordered reduce (ConnectPreverified). A Preverified is
// consumed exactly once; its Breakdown accumulates across both stages.
type Preverified struct {
	slab *verdictSlab // nil when the structure check failed or once consumed
	bd   Breakdown
}

// Breakdown exposes the work recorded so far — pipeline drivers report
// it for blocks whose stage A failed and that never reach stage B.
func (p *Preverified) Breakdown() *Breakdown { return &p.bd }

// Preverify runs stage A of the cross-block pipeline for one block:
// the structure check and the per-tx verifier fanned out on up to
// workers goroutines. hs, when non-nil, replaces the validator's own
// header view; a pipeline passes an overlay that already includes the
// headers of preverified-but-uncommitted predecessors, which is what
// lets block N+K verify before block N commits. Nothing here reads or
// writes the status database, so any number of Preverify calls may
// run while earlier blocks connect. The live-state checks happen in
// ConnectPreverified, in height order.
func (v *EBVValidator) Preverify(b *blockmodel.EBVBlock, hs HeaderSource, workers int) (*Preverified, error) {
	if hs != nil {
		view := *v
		view.headers = hs
		v = &view
	}
	return v.preverify(b, workers, true)
}

// preverify is Preverify against v's own header view. link selects
// the tip-link check; a light client anchors the block to its header
// chain instead.
func (v *EBVValidator) preverify(b *blockmodel.EBVBlock, workers int, link bool) (*Preverified, error) {
	pv := &Preverified{bd: Breakdown{Txs: len(b.Txs), Inputs: b.TotalInputs(), Outputs: b.TotalOutputs()}}
	bd := &pv.bd
	w := newStopwatch()
	var err error
	if link {
		err = v.checkLink(b)
	}
	if err == nil {
		err = v.checkBody(b)
	}
	w.lap(&bd.Other)
	if err != nil {
		return pv, err
	}
	pv.slab = takeSlab(b.Txs)
	// One task per non-coinbase transaction; the coinbase is covered
	// by the structure check and the subsidy rule.
	if tvs := pv.slab.txs; len(tvs) > 1 {
		var wall time.Duration
		runWorkers(workers, len(tvs)-1, func(i int) bool {
			return v.verifyTx(b.Txs[i+1], &tvs[i+1])
		})
		w.lap(&wall)
		chargePool(bd, tvs, wall)
	}
	return pv, nil
}

// ConnectPreverified runs stage B for a block whose proofs Preverify
// already checked: it re-verifies the linkage against the committed
// tip (stage A may have verified against speculative predecessors
// that never connected), then runs the ordered reduce with the status
// database as UV oracle and commits. Acceptance, rejection, and the
// reported error are identical to ConnectBlock on the same state. The
// returned Breakdown aggregates both stages.
func (v *EBVValidator) ConnectPreverified(b *blockmodel.EBVBlock, pv *Preverified) (*Breakdown, error) {
	return v.ConnectPreverifiedIn(b, pv, nil)
}

// ConnectPreverifiedIn is ConnectPreverified with the ingest scratch
// that supplies the reduce's spend/probe/dedup buffers (see
// ConnectBlockIn). Pipeline drivers pass the scratch the block was
// decoded with.
func (v *EBVValidator) ConnectPreverifiedIn(b *blockmodel.EBVBlock, pv *Preverified, s *ingest.Scratch) (*Breakdown, error) {
	w := newStopwatch()
	err := v.checkLink(b)
	w.lap(&pv.bd.Other)
	if err != nil {
		pv.release()
		return &pv.bd, err
	}
	return v.connect(b, pv, s)
}

// connect is stage B proper: the ordered reduce over pv's verdicts
// with the status database's batched probe as UV oracle, then the
// bit-vector commit (paper §IV-E1), counted under Other. It consumes
// pv. A nil s takes a pooled scratch for the call.
func (v *EBVValidator) connect(b *blockmodel.EBVBlock, pv *Preverified, s *ingest.Scratch) (*Breakdown, error) {
	defer pv.release()
	if s == nil {
		s = ingest.Get()
		defer s.Release()
	}
	bd := &pv.bd
	w := newStopwatch()
	uv := v.probeUV(collectSpends(b.Txs[1:], s), s)
	w.lap(&bd.UV)
	err := reduceBlock(b, pv.slab.txs, uv, s.Seen())
	w.lap(&bd.Other)
	if err != nil {
		return bd, err
	}
	// Every input passed, so the collected spends are exactly the
	// spends to apply.
	err = v.status.Connect(b.Header.Height, bd.Outputs, uv.spends)
	w.lap(&bd.Other)
	if err != nil {
		return bd, fmt.Errorf("%w: %v", ErrInvalidBlock, err)
	}
	return bd, nil
}

// release returns pv's verdict storage to the pool.
func (p *Preverified) release() {
	if p.slab != nil {
		p.slab.release()
		p.slab = nil
	}
}

// chargePool distributes the verifier fan-out's wall-clock duration
// across the Breakdown's EV, SV and Other counters in proportion to
// the summed per-worker time each phase consumed, and folds in the
// cache probe counts. Summed worker time overstates elapsed time by up
// to the worker count; wall clock is what the paper's figures plot.
func chargePool(bd *Breakdown, tvs []txVerdict, wall time.Duration) {
	var sEV, sSV, sOther time.Duration
	for i := range tvs {
		tv := &tvs[i]
		sOther += tv.other
		for j := range tv.inputs {
			iv := &tv.inputs[j]
			sEV += iv.ev
			sSV += iv.sv
			switch iv.cache {
			case cacheHit:
				bd.CacheHits++
			case cacheMiss:
				bd.CacheMisses++
			}
		}
	}
	total := sEV + sSV + sOther
	if total <= 0 {
		bd.Other += wall
		return
	}
	ev := time.Duration(int64(wall) * int64(sEV) / int64(total))
	sv := time.Duration(int64(wall) * int64(sSV) / int64(total))
	bd.EV += ev
	bd.SV += sv
	bd.Other += wall - ev - sv
}
