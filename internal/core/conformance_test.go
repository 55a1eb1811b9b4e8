package core

import (
	"errors"
	"fmt"
	"testing"

	"ebv/internal/blockmodel"
	"ebv/internal/script"
	"ebv/internal/sig"
	"ebv/internal/statusdb"
	"ebv/internal/txmodel"
	"ebv/internal/vcache"
)

// The conformance corpus: rejected blocks (the adversarialCases) and
// rejected standalone transactions, each with the exact error text
// every entry point must report — in the spirit of the CV-UTXO-BASIC
// replay of the Rubin formal spec. Block entries are replayed by
// ConnectBlock at one and four workers and by Preverify +
// ConnectPreverified (TestConformanceCorpusBlocks), and by
// light.VerifyBlock (TestConformanceCorpusLight in package core_test);
// transaction entries by ValidateTx and by one ValidateTxsBatch call
// (TestConformanceCorpusTxs). The texts depend on the deterministic
// fixture chain (newFixture(t, 150)).

// blockCorpus maps each adversarial case to its expected verdicts.
// light is light.VerifyBlock's text where it differs from the full
// node's; uvDecided marks a block only UV rejects, which a light client
// (no UV oracle) accepts.
var blockCorpus = map[string]struct {
	want      string
	light     string
	uvDecided bool
}{
	"fake-position":      {want: "tx 1: input 0: core: invalid block: input spends nonexistent output: merkle branch does not reach root at height 148"},
	"tampered-branch":    {want: "tx 1: input 0: core: invalid block: input spends nonexistent output: merkle branch does not reach root at height 148"},
	"body-hash-mismatch": {want: "tx 1: core: invalid block: input proof inconsistent: txmodel: body 0 hash 937269b3 != committed 9ef805ff"},
	"bad-signature":      {want: "tx 1: input 0: core: invalid block: script validation failed: script: final stack value is false"},
	"double-spend":       {want: "tx 2: input 0: core: invalid block: output spent twice within the block: height 148 position 3"},
	// Only UV rejects the re-signed spend; the light client accepts it.
	// The unsigned one carries the original signature, so without UV
	// the light client reaches the SV failure.
	"spent-output":        {want: "tx 1: input 0: core: invalid block: input spends an already-spent output: height 147 position 1", light: "tx 1: input 0: core: invalid block: script validation failed: script: final stack value is false"},
	"spent-output-signed": {want: "tx 1: input 0: core: invalid block: input spends an already-spent output: height 147 position 1", uvDecided: true},
	"extra-coinbase":      {want: "tx 1: core: invalid block: non-first coinbase transaction"},
	"inflated-coinbase":   {want: "core: invalid block: coinbase claims more than subsidy plus fees: claims 5000022001, allowed 5000022000"},
	"wrong-merkle-root":   {want: "core: invalid block: merkle root mismatch"},
	// The tip link is a full-node rule; its light-client counterpart is
	// header anchoring, and a header whose prev hash does not link never
	// enters the client's header chain.
	"bad-link":          {want: "core: invalid block: does not extend current tip: prev hash mismatch", light: "light: block header not on the header chain"},
	"immature-coinbase": {want: "tx 1: input 0: core: invalid block: coinbase output spent before maturity"},
}

// txCorpus maps each transaction case to its expected error text.
var txCorpus = map[string]string{
	"standalone-coinbase": "core: invalid block: standalone coinbase",
	"body-hash-mismatch":  "core: invalid block: input proof inconsistent: txmodel: body 0 hash 937269b3 != committed 9ef805ff",
	"tampered-branch":     "input 0: core: invalid block: input spends nonexistent output: merkle branch does not reach root at height 148",
	"unknown-height":      "input 0: core: invalid block: input spends nonexistent output: no header at height 999999",
	"bad-signature":       "input 0: core: invalid block: script validation failed: script: final stack value is false",
	"duplicate-input":     "input 2: core: invalid block: output spent twice within the block: height 148 position 3",
	"spent-output":        "input 0: core: invalid block: input spends an already-spent output: height 147 position 1",
	"immature-coinbase":   "input 0: core: invalid block: coinbase output spent before maturity",
	"value-imbalance":     "core: invalid block: outputs exceed inputs: spends 414231751, creates 1099925857527",
}

// ConformanceBlock is one block entry of the corpus, exported for the
// replays in package core_test (which may import the light client).
type ConformanceBlock struct {
	Name      string
	Want      string // the full node's error text
	Light     string // light.VerifyBlock's error text; "" means it accepts
	UVDecided bool
	Block     *blockmodel.EBVBlock
}

// ConformanceEnv is the corpus fixture: a validator synced to the
// height below the corpus blocks, the headers it holds, and the corpus.
type ConformanceEnv struct {
	Headers []blockmodel.Header
	Scheme  sig.Scheme
	Honest  *blockmodel.EBVBlock // the fixture's valid block at the corpus height
	Blocks  []ConformanceBlock

	f  *fixture
	v  *EBVValidator
	mh *memHeaders
}

// NewConformanceEnv builds the corpus over the deterministic fixture.
func NewConformanceEnv(t testing.TB) *ConformanceEnv {
	t.Helper()
	f := newFixture(t, 150)
	mh := &memHeaders{}
	v := NewEBVValidator(statusdb.New(true), script.NewEngine(f.gen.Scheme()), mh)
	v.SetBlockOutputsFunc(func(h uint64) int { return f.ebv[h].TotalOutputs() })
	for _, b := range f.ebv[:len(f.ebv)-1] {
		if _, err := v.ConnectBlock(b); err != nil {
			t.Fatal(err)
		}
		mh.hdrs = append(mh.hdrs, b.Header)
	}
	e := &ConformanceEnv{Headers: mh.hdrs, Scheme: f.gen.Scheme(), Honest: f.lastEBV, f: f, v: v, mh: mh}
	for _, c := range append(adversarialCases(), mutation{"spent-output-signed", craftSignedSpentOutput}) {
		blk := c.make(t, f)
		if blk == nil {
			t.Fatalf("case %s: no usable spends in the fixture", c.name)
		}
		exp, ok := blockCorpus[c.name]
		if !ok {
			t.Fatalf("case %s has no corpus entry", c.name)
		}
		light := exp.light
		if light == "" && !exp.uvDecided {
			light = exp.want
		}
		e.Blocks = append(e.Blocks, ConformanceBlock{Name: c.name, Want: exp.want, Light: light, UVDecided: exp.uvDecided, Block: blk})
	}
	if len(e.Blocks) != len(blockCorpus) {
		t.Fatalf("%d block cases for %d corpus entries", len(e.Blocks), len(blockCorpus))
	}
	return e
}

// Check runs b through the full node's ConnectBlock and, when it
// connects, disconnects it again, so the environment stays at its tip.
func (e *ConformanceEnv) Check(b *blockmodel.EBVBlock) error {
	if _, err := e.v.ConnectBlock(b); err != nil {
		return err
	}
	e.mh.hdrs = append(e.mh.hdrs, b.Header)
	defer func() { e.mh.hdrs = e.mh.hdrs[:len(e.mh.hdrs)-1] }()
	if err := e.v.DisconnectBlock(b); err != nil {
		panic(fmt.Sprintf("disconnecting a block that just connected: %v", err))
	}
	return nil
}

// errText renders a verdict for comparison with the corpus.
func errText(err error) string {
	if err == nil {
		return "<accepted>"
	}
	return err.Error()
}

func TestConformanceCorpusBlocks(t *testing.T) {
	e := NewConformanceEnv(t)
	f := e.f
	vals := map[string]*EBVValidator{}
	for _, workers := range []int{1, 4} {
		vals[fmt.Sprintf("ConnectBlock/workers=%d", workers)], _ = syncedEBV(t, f, WithParallelValidation(workers))
	}
	two, _ := syncedEBV(t, f)
	for _, c := range e.Blocks {
		got := map[string]error{"env": e.Check(c.Block)}
		for name, v := range vals {
			_, got[name] = v.ConnectBlock(c.Block)
		}
		pv, err := two.Preverify(c.Block, nil, 4)
		if err == nil {
			_, err = two.ConnectPreverified(c.Block, pv)
		}
		got["Preverify+ConnectPreverified"] = err
		for name, err := range got {
			if !errors.Is(err, ErrInvalidBlock) {
				t.Errorf("%s via %s: %v does not wrap ErrInvalidBlock", c.Name, name, err)
			}
			if errText(err) != c.Want {
				t.Errorf("%s via %s:\n  got:  %s\n  want: %s", c.Name, name, errText(err), c.Want)
			}
		}
	}
	// Every rejection left the state untouched: the honest block
	// connects everywhere.
	for name, v := range vals {
		if _, err := v.ConnectBlock(e.Honest); err != nil {
			t.Fatalf("%s: honest block after the corpus: %v", name, err)
		}
	}
}

func TestConformanceCorpusTxs(t *testing.T) {
	f := newFixture(t, 150)
	v, _ := syncedEBV(t, f, WithVerificationCache(vcache.New(0)))
	names, txs := conformanceTxs(t, f)
	if len(names) != len(txCorpus) {
		t.Fatalf("%d tx cases for %d corpus entries", len(names), len(txCorpus))
	}
	// The corpus is batched together with the last block's honest
	// transactions: a failing transaction cancels nobody else's verdict.
	honest := reencode(t, f.lastEBV).Txs[1:]
	batch := v.ValidateTxsBatch(append(txs, honest...), 4, nil)
	for i, name := range names {
		want := txCorpus[name]
		if got := errText(v.ValidateTx(txs[i])); got != want {
			t.Errorf("%s via ValidateTx:\n  got:  %s\n  want: %s", name, got, want)
		}
		if got := errText(batch[i]); got != want {
			t.Errorf("%s via ValidateTxsBatch:\n  got:  %s\n  want: %s", name, got, want)
		}
	}
	for i, err := range batch[len(txs):] {
		if err != nil {
			t.Errorf("honest tx %d batched with the corpus: %v", i+1, err)
		}
	}
}

// conformanceTxs builds the transaction cases, named by their txCorpus
// keys, against the fixture's synced state (tip at the height below
// f.lastEBV).
func conformanceTxs(t *testing.T, f *fixture) ([]string, []*txmodel.EBVTx) {
	var names []string
	var txs []*txmodel.EBVTx
	add := func(name string, tx *txmodel.EBVTx) {
		if _, ok := txCorpus[name]; !ok {
			t.Fatalf("tx case %s has no corpus entry", name)
		}
		names = append(names, name)
		txs = append(txs, tx)
	}
	honest := func() *txmodel.EBVTx {
		tx := spendingTx(reencode(t, f.lastEBV))
		if tx == nil {
			t.Fatal("no usable spends in the fixture")
		}
		return tx
	}

	add("standalone-coinbase", reencode(t, f.lastEBV).Txs[0])

	tx := honest()
	tx.Bodies[0].Height++ // not resealed: consistency must fail
	add("body-hash-mismatch", tx)

	tx = honest()
	tx.Bodies[0].Branch.Siblings[0][0] ^= 1
	tx.SealInputHashes()
	add("tampered-branch", tx)

	tx = honest()
	tx.Bodies[0].Height = 999_999
	tx.SealInputHashes()
	add("unknown-height", tx)

	tx = honest()
	tx.Bodies[0].UnlockScript[5] ^= 1
	tx.SealInputHashes()
	add("bad-signature", tx)

	tx = honest()
	tx.Bodies = append(tx.Bodies, tx.Bodies[0])
	resign(t, f, tx)
	add("duplicate-input", tx)

	tx = honest()
	older := spendingTx(reencode(t, f.ebv[len(f.ebv)-2]))
	if older == nil {
		t.Fatal("no spends in the block below the tip")
	}
	tx.Bodies[0] = older.Bodies[0]
	tx.SealInputHashes()
	add("spent-output", tx)

	add("immature-coinbase", craftImmatureCoinbaseSpend(t, f).Txs[1])

	// Outputs exceed inputs, with every signature re-rendered so EV, UV
	// and SV pass and only value conservation can reject.
	tx = honest()
	tx.Tidy.Outputs[0].Value += 1 << 40
	resign(t, f, tx)
	add("value-imbalance", tx)
	return names, txs
}

// resign re-renders every unlocking script of tx for its current
// sighash from the generator's key material and reseals it.
func resign(t testing.TB, f *fixture, tx *txmodel.EBVTx) {
	t.Helper()
	tx.SealInputHashes()
	sigHash := tx.SigHash()
	for bi := range tx.Bodies {
		body := &tx.Bodies[bi]
		leaf := body.PrevTx.LeafHash()
		txIdx := -1
		for i, prev := range f.ebv[body.Height].Txs {
			if prev.Tidy.LeafHash() == leaf {
				txIdx = i
			}
		}
		if txIdx < 0 {
			t.Fatalf("input %d: spent tx not found at height %d", bi, body.Height)
		}
		unlock, err := f.gen.Resign(body.Height, uint32(txIdx), body.RelIndex, sigHash)
		if err != nil {
			t.Fatal(err)
		}
		body.UnlockScript = unlock
	}
	tx.SealInputHashes()
}

// craftSignedSpentOutput re-spends an output the block below the
// corpus height already spent, re-signed and with the values
// rebalanced, so EV, SV, maturity and value conservation all pass and
// only UV can reject the block.
func craftSignedSpentOutput(t testing.TB, f *fixture) *blockmodel.EBVBlock {
	blk := reencode(t, f.lastEBV)
	tx := spendingTx(blk)
	spent := spendingTx(reencode(t, f.ebv[len(f.ebv)-2]))
	if tx == nil || spent == nil {
		return nil
	}
	oldOut, _ := tx.Bodies[0].SpentOutput()
	tx.Bodies[0] = spent.Bodies[0]
	newOut, _ := tx.Bodies[0].SpentOutput()
	// Keep the fee: move the value difference onto the outputs.
	tx.Tidy.Outputs[0].Value += newOut.Value
	for i, short := 0, oldOut.Value; short > 0; i++ {
		if i == len(tx.Tidy.Outputs) {
			t.Fatal("re-spent output too small to rebalance")
		}
		cut := min(short, tx.Tidy.Outputs[i].Value)
		tx.Tidy.Outputs[i].Value -= cut
		short -= cut
	}
	resign(t, f, tx)
	rebuild(t, blk)
	return blk
}
