package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"ebv/internal/blockmodel"
	"ebv/internal/chainstore"
	"ebv/internal/hashx"
	"ebv/internal/node"
	"ebv/internal/proof"
	"ebv/internal/script"
	"ebv/internal/sig"
	"ebv/internal/txmodel"
	"ebv/internal/workload"
)

// setupReps is how many times a run repeats its set-up; setup_s is
// the median.
const setupReps = 3

// chainBlocks is the generated chain's length. Every run generates it
// setupReps times, which keeps it well below the 5000 blocks of a
// full-size IBD run.
const chainBlocks = 1500

// genChain is a generated EBV chain with the generator's ground truth.
type genChain struct {
	dir    string
	store  *chainstore.Store // nil once released
	blocks int
	inputs int // non-coinbase inputs
	utxos  int // live outputs at the tip
	tip    hashx.Hash
}

// generateChain renders a seeded chainBlocks-long mainnet-model chain
// as an EBV chain under dir, as chaingen does, signing with the
// node-default SimSig cost so that node-default verifiers accept it.
func generateChain(dir string, seed int64) (*genChain, error) {
	p := workload.DefaultParams()
	p.Blocks = chainBlocks
	p.Seed = seed
	gen := workload.NewGenerator(p)
	im, err := proof.NewIntermediary(dir, gen.Resign)
	if err != nil {
		return nil, err
	}
	for !gen.Done() {
		cb, err := gen.NextBlock()
		if err == nil {
			_, err = im.ProcessBlock(cb)
		}
		if err != nil {
			im.Close()
			return nil, fmt.Errorf("generate block %d: %w", gen.Height(), err)
		}
	}
	// Keep only the chain: the intermediary's location index and
	// decoded-block cache would otherwise stay on the heap the measured
	// phase collects.
	if err := im.Close(); err != nil {
		return nil, err
	}
	store, err := chainstore.Open(filepath.Join(dir, "chain"))
	if err != nil {
		return nil, err
	}
	return &genChain{
		dir: dir, store: store,
		blocks: chainBlocks, inputs: gen.TotalInputs, utxos: gen.UTXOCount(),
		tip: store.TipHash(),
	}, nil
}

// release closes the chain's store and deletes its files. It may be
// called more than once.
func (c *genChain) release() {
	if c == nil || c.store == nil {
		return
	}
	c.store.Close()
	c.store = nil
	os.RemoveAll(c.dir)
}

// meta describes the chain for the run metadata.
func (c *genChain) meta() map[string]any {
	return map[string]any{"blocks": c.blocks, "inputs": c.inputs, "utxos": c.utxos, "txscale": workload.DefaultParams().TxScale}
}

// coin is one unspent output and where it was created.
type coin struct {
	height uint64
	txIdx  uint32
	outIdx uint32
	value  uint64
}

// unspentCoins lists the outputs of chain that are unspent and
// spendable at the next height, by scanning every block's spends as
// loadgen.Prepare does.
func unspentCoins(chain *chainstore.Store) ([]coin, error) {
	type outpoint struct {
		height uint64
		pos    uint32
	}
	blocks := uint64(chain.Count())
	spent := make(map[outpoint]struct{})
	var all []coin
	var pos []uint32
	for h := uint64(0); h < blocks; h++ {
		raw, err := chain.BlockBytes(h)
		if err != nil {
			return nil, err
		}
		blk, err := blockmodel.DecodeEBVBlock(raw)
		if err != nil {
			return nil, err
		}
		for ti, tx := range blk.Txs {
			for i := range tx.Bodies {
				spent[outpoint{tx.Bodies[i].Height, tx.Bodies[i].AbsPosition()}] = struct{}{}
			}
			if tx.Tidy.IsCoinbase() && h+txmodel.CoinbaseMaturity >= blocks {
				continue
			}
			for oi, out := range tx.Tidy.Outputs {
				all = append(all, coin{h, uint32(ti), uint32(oi), out.Value})
				pos = append(pos, tx.Tidy.StakePos+uint32(oi))
			}
		}
	}
	live := all[:0]
	for i, c := range all {
		if _, ok := spent[outpoint{c.height, pos[i]}]; !ok {
			live = append(live, c)
		}
	}
	return live, nil
}

// Fan-out sizing. Each fan-out transaction spends one coin into
// fanOutputs fresh outputs; a spend of one of them carries the whole
// previous transaction as its proof, so the count stays small.
const (
	fanOutputs  = 16
	fanTxsBlock = 800 // keeps a fan-out block well under MaxBlockBytes
	fanFee      = 2_000
	corpusFee   = 1_000 // what each corpus transaction pays (ebvload's default)
)

// buildFanout returns encoded blocks extending chain that spend
// seeded picks of its coins into at least want fresh outputs, each
// locked to the key workload.KeySeed derives from its coordinates,
// so loadgen.Prepare can spend it like any generated output. The
// caller connects the blocks through its nodes.
func buildFanout(chain *chainstore.Store, want int, seed int64) ([][]byte, int, error) {
	if want <= 0 {
		return nil, 0, nil
	}
	coins, err := unspentCoins(chain)
	if err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(coins), func(i, j int) { coins[i], coins[j] = coins[j], coins[i] })
	minValue := uint64(fanOutputs)*(corpusFee*4) + fanFee
	scheme := sig.SimSig{}
	builder := proof.NewBuilder(chain, 256)

	tipHeight, _ := chain.TipHeight()
	prev := chain.TipHash()
	var blocks [][]byte
	made := 0
	next := 0
	for made < want {
		height := tipHeight + 1 + uint64(len(blocks))
		txs := []*txmodel.EBVTx{nil} // coinbase filled below
		var fees uint64
		for len(txs) <= fanTxsBlock && made < want {
			if next >= len(coins) {
				return nil, 0, fmt.Errorf("fan-out: ran out of coins after %d outputs (want %d)", made, want)
			}
			c := coins[next]
			next++
			if c.value < minValue {
				continue
			}
			body, err := builder.Prove(proof.Loc{Height: c.height, TxIndex: c.txIdx}, c.outIdx)
			if err != nil {
				return nil, 0, err
			}
			txIdx := uint32(len(txs))
			share := (c.value - fanFee) / fanOutputs
			outs := make([]txmodel.TxOut, fanOutputs)
			for o := range outs {
				key := scheme.KeyFromSeed(workload.KeySeed(height, txIdx, uint32(o)))
				outs[o] = txmodel.TxOut{Value: share, LockScript: script.StandardLock(key)}
			}
			tx := &txmodel.EBVTx{
				Tidy:   txmodel.TidyTx{Version: 1, Outputs: outs},
				Bodies: []txmodel.InputBody{body},
			}
			key := scheme.KeyFromSeed(workload.KeySeed(c.height, c.txIdx, c.outIdx))
			unlock, err := script.StandardUnlock(key, tx.SigHash())
			if err != nil {
				return nil, 0, err
			}
			tx.Bodies[0].UnlockScript = unlock
			tx.SealInputHashes()
			txs = append(txs, tx)
			fees += c.value - share*fanOutputs
			made += fanOutputs
		}
		minerKey := scheme.KeyFromSeed([]byte(fmt.Sprintf("perfbench-fanout-%d", height)))
		txs[0] = &txmodel.EBVTx{Tidy: txmodel.TidyTx{
			Outputs:  []txmodel.TxOut{{Value: blockmodel.Subsidy(height) + fees, LockScript: script.StandardLock(minerKey)}},
			LockTime: uint32(height),
		}}
		blk, err := blockmodel.AssembleEBV(prev, height, 1_230_000_000+height*600, txs)
		if err != nil {
			return nil, 0, err
		}
		prev = blk.Header.Hash()
		blocks = append(blocks, blk.Encode(nil))
	}
	return blocks, made, nil
}

// connectAll submits encoded blocks to a node in order.
func connectAll(n *node.EBVNode, blocks [][]byte) error {
	for i, raw := range blocks {
		if _, err := n.SubmitBlockRaw(raw); err != nil {
			return fmt.Errorf("fan-out block %d: %w", i, err)
		}
	}
	return nil
}
