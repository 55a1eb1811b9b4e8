package bench

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ebv/internal/blockmodel"
	"ebv/internal/statusdb"
)

// commitOp is one block's status-database commit, extracted from the
// bench chain: the arguments an EBV node passes to statusdb.Connect
// after validation succeeds.
type commitOp struct {
	height   uint64
	nOutputs int
	spends   []statusdb.Spend
}

// chainCommitOps decodes the bench EBV chain into the per-block
// Connect arguments, in the validator's scan order (coinbase skipped).
func (e *Env) chainCommitOps() ([]commitOp, error) {
	n := e.EBVChain.Count()
	ops := make([]commitOp, 0, n)
	for h := uint64(0); h < uint64(n); h++ {
		raw, err := e.EBVChain.BlockBytes(h)
		if err != nil {
			return nil, err
		}
		blk, err := blockmodel.DecodeEBVBlock(raw)
		if err != nil {
			return nil, err
		}
		var spends []statusdb.Spend
		for ti := range blk.Txs {
			if ti == 0 {
				continue
			}
			tx := blk.Txs[ti]
			for bi := range tx.Bodies {
				body := &tx.Bodies[bi]
				spends = append(spends, statusdb.Spend{Height: body.Height, Pos: body.AbsPosition()})
			}
		}
		ops = append(ops, commitOp{height: h, nOutputs: blk.TotalOutputs(), spends: spends})
	}
	return ops, nil
}

// AblationShards sweeps the status database's shard count over the
// bench chain's commit stream. Three measurements per configuration:
//
//   - commit: replay every block's Connect back to back — the
//     validator's serial commit path, where sharding buys parallel
//     staging within large blocks (the arm's value);
//   - probe: NumCPU reader goroutines issue batched UV probes against
//     the built set — the mempool/relay read path, where sharding
//     removes the single RWMutex every reader funnels through;
//   - commit+export: the replay again with a concurrent snapshot
//     exporter looping, the statesync serving scenario the shallow
//     per-shard snapshot is designed for.
//
// Every configuration's final state must be byte-identical to the
// single-shard baseline's (and pass CheckInvariants) in every round
// before any number is reported. Arms run interleaved for
// Options.Repeats rounds; results are written as BENCH_shards.json
// into Options.ArtifactDir.
func (e *Env) AblationShards(w io.Writer) error {
	ops, err := e.chainCommitOps()
	if err != nil {
		return err
	}
	var inputs int
	for _, op := range ops {
		inputs += len(op.spends)
	}
	ncpu := runtime.NumCPU()

	// replay connects every op into a fresh set; with export set, a
	// concurrent exporter loops over the set until the replay ends.
	replay := func(shards int, export bool) (*statusdb.DB, time.Duration, int64, error) {
		d := statusdb.NewSharded(true, shards)
		var stop atomic.Bool
		var exports atomic.Int64
		var wg sync.WaitGroup
		if export {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					if _, ok, _ := d.ExportVectors(); ok {
						exports.Add(1)
					}
				}
			}()
		}
		start := time.Now()
		var err error
		for i := range ops {
			if err = d.Connect(ops[i].height, ops[i].nOutputs, ops[i].spends); err != nil {
				err = fmt.Errorf("connect %d: %w", ops[i].height, err)
				break
			}
		}
		wall := time.Since(start)
		stop.Store(true)
		wg.Wait()
		return d, wall, exports.Load(), err
	}

	// The probe workload is fixed across configurations: batches of
	// plausible UV probes over the whole height range.
	const probeBatch = 512
	tipHeights := uint64(len(ops))
	probeRng := rand.New(rand.NewSource(e.Opts.Seed + 7))
	probeSets := make([][]statusdb.Spend, ncpu)
	for i := range probeSets {
		batch := make([]statusdb.Spend, probeBatch)
		for j := range batch {
			batch[j] = statusdb.Spend{
				Height: probeRng.Uint64() % tipHeights,
				Pos:    uint32(probeRng.Intn(256)),
			}
		}
		probeSets[i] = batch
	}
	probeRun := func(d *statusdb.DB) (probesPerSec float64) {
		const rounds = 200
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < ncpu; g++ {
			wg.Add(1)
			go func(batch []statusdb.Spend) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					d.IsUnspentBatch(batch)
				}
			}(probeSets[g])
		}
		wg.Wait()
		return float64(ncpu*rounds*probeBatch) / time.Since(start).Seconds()
	}

	// State equality gate: every replay must land on exactly the
	// single-shard baseline's bytes.
	base, _, _, err := replay(1, false)
	if err != nil {
		return err
	}
	var baseSnap bytes.Buffer
	if err := base.Save(&baseSnap); err != nil {
		return err
	}
	sameState := func(d *statusdb.DB) error {
		if err := d.CheckInvariants(); err != nil {
			return err
		}
		var snap bytes.Buffer
		if err := d.Save(&snap); err != nil {
			return err
		}
		if !bytes.Equal(snap.Bytes(), baseSnap.Bytes()) {
			return fmt.Errorf("state diverged from the 1-shard baseline")
		}
		return nil
	}

	var arms []arm
	for _, shards := range dedupSorted([]int{1, 2, 4, 8, ncpu}) {
		arms = append(arms, arm{fmt.Sprintf("shards=%d", shards), func() (reading, error) {
			d, commitWall, _, err := replay(shards, false)
			if err == nil {
				err = sameState(d)
			}
			if err != nil {
				return reading{}, err
			}
			probes := probeRun(d)
			d2, exportWall, exports, err := replay(shards, true)
			if err == nil {
				err = sameState(d2)
			}
			if err != nil {
				return reading{}, fmt.Errorf("with concurrent export: %w", err)
			}
			return reading{float64(commitWall), map[string]float64{
				"probes_per_s":          probes,
				"commit_with_export_ns": float64(exportWall),
				"exports":               float64(exports),
				"mem_bytes":             float64(d.MemUsage()),
				"unspent":               float64(d.UnspentCount()),
			}}, nil
		}})
	}

	logf(w, "ablation-shards: %d blocks, %d inputs, %d CPU(s)", len(ops), inputs, ncpu)
	_, err = e.measure(w, report{
		id:    "ablation-shards",
		title: "Ablation: status-database shard count (state byte-identical across all arms)",
		unit:  "ns",
		base:  "shards=1",
		cols:  []string{"probes_per_s", "commit_with_export_ns", "exports"},
	}, arms)
	return err
}
