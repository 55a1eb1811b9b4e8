package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"ebv/internal/admission"
	"ebv/internal/loadgen"
	"ebv/internal/mempool"
	"ebv/internal/node"
	"ebv/internal/txmodel"
)

// AblationAdmission measures the transaction-admission front end:
// batched verification (one EV+SV pass across the batch through the
// worker pool plus one shard-grouped UV probe) against the
// one-at-a-time baseline (decode, ValidateTx, Pool.Add per
// transaction), across a batch-size × worker sweep. Every arm pushes
// the same corpus of valid spends — built from the chain's own
// unspent outputs — through a fresh pool, and must admit all of it;
// the reading is wall time per admitted transaction.
//
// The verified-proof cache is disabled for every arm so no arm warms
// the next, and the admission queue is sized to the corpus so no
// submission is rejected at intake: the sweep isolates verification
// and commit, not backpressure.
//
// Arms run interleaved for Options.Repeats rounds; results are
// written as BENCH_admission.json into Options.ArtifactDir.
func (e *Env) AblationAdmission(w io.Writer) error {
	// One synced node; admission only reads validation state, so every
	// arm can share it with its own fresh pool.
	n, done, err := e.freshEBVNode(func(c *node.Config) { c.VerifyCacheSize = 0 })
	if err != nil {
		return err
	}
	defer done()
	if _, err := node.RunIBDEBV(e.EBVChain, n, 0, nil); err != nil {
		return err
	}

	corpusCap := 4096
	if e.Opts.Quick {
		corpusCap = 1024
	}
	corpus, err := loadgen.Prepare(e.EBVChain, e.Opts.Scheme(), corpusCap, 1_000)
	if err != nil {
		return err
	}
	if len(corpus) < 16 {
		return fmt.Errorf("only %d spendable outputs; chain too small for the admission sweep", len(corpus))
	}
	fmt.Fprintf(w, "admission corpus: %d spendable transactions\n", len(corpus))

	wide := e.Opts.Workers
	if wide <= 1 {
		wide = min(runtime.GOMAXPROCS(0), 8)
	}
	perTx := func(run func() (time.Duration, error)) func() (reading, error) {
		return func() (reading, error) {
			wall, err := run()
			return reading{value: float64(wall) / float64(len(corpus))}, err
		}
	}
	arms := []arm{{"sequential", perTx(func() (time.Duration, error) { return e.admissionSequential(n, corpus) })}}
	seen := map[string]bool{}
	for _, bw := range []struct{ batch, workers int }{
		{1, 1}, {64, 1}, {1, wide}, {16, wide}, {64, wide}, {256, wide},
	} {
		name := fmt.Sprintf("batched b=%d w=%d", bw.batch, bw.workers)
		if seen[name] { // wide == 1 repeats the single-worker arms
			continue
		}
		seen[name] = true
		arms = append(arms, arm{name,
			perTx(func() (time.Duration, error) { return e.admissionService(n, corpus, bw.batch, bw.workers) })})
	}
	if _, err := e.measure(w, report{
		id:    "ablation-admission",
		title: "Ablation: tx admission, batched verification vs one-at-a-time",
		unit:  "ns/tx",
		base:  "sequential",
	}, arms); err != nil {
		return err
	}
	fmt.Fprintln(w, "Each arm admits the same corpus into a fresh pool; batched arms amortize the UV probe and spread EV+SV across the workers.")
	if runtime.NumCPU() == 1 {
		fmt.Fprintln(w, "note: single-CPU host — the parallel arms cannot exceed the sequential baseline here; expect the batched arms to win at workers > 1 on multicore hardware.")
	}
	return nil
}

// admissionSequential times the baseline: decode, validate, and add
// each transaction on one goroutine.
func (e *Env) admissionSequential(n *node.EBVNode, corpus [][]byte) (time.Duration, error) {
	pool := mempool.New(n.Validator, mempool.Config{MaxTxs: len(corpus) + 1})
	start := time.Now()
	for i, raw := range corpus {
		tx, err := txmodel.DecodeEBVTx(raw)
		if err != nil {
			return 0, fmt.Errorf("sequential decode %d: %w", i, err)
		}
		if _, err := pool.Add(tx); err != nil {
			return 0, fmt.Errorf("sequential add %d: %w", i, err)
		}
	}
	wall := time.Since(start)
	if pool.Len() != len(corpus) {
		return 0, fmt.Errorf("sequential: pooled %d of %d", pool.Len(), len(corpus))
	}
	return wall, nil
}

// admissionService times the batched pipeline: the full admission
// service over a fresh pool, fed as fast as intake accepts.
func (e *Env) admissionService(n *node.EBVNode, corpus [][]byte, batch, workers int) (time.Duration, error) {
	pool := mempool.New(n.Validator, mempool.Config{MaxTxs: len(corpus) + 1})
	svc := admission.New(&admission.EBVBackend{Pool: pool, Validator: n.Validator}, admission.Config{
		BatchSize:  batch,
		QueueDepth: len(corpus) + 1,
		Workers:    workers,
		// Throughput sweep, not latency shaping: flush partial batches
		// immediately instead of waiting out the default window when the
		// submitter momentarily trails the collector.
		BatchWindow: 50 * time.Microsecond,
	})
	defer svc.Close()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	wg.Add(len(corpus))
	start := time.Now()
	for i, raw := range corpus {
		i := i
		svc.SubmitAsync("bench", raw, func(r admission.Result) {
			if r.Err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("tx %d: %w", i, r.Err)
				}
				mu.Unlock()
			}
			wg.Done()
		})
	}
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		return 0, firstErr
	}
	if pool.Len() != len(corpus) {
		return 0, fmt.Errorf("pooled %d of %d", pool.Len(), len(corpus))
	}
	return wall, nil
}
