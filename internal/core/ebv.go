package core

import (
	"encoding/binary"
	"fmt"

	"ebv/internal/blockmodel"
	"ebv/internal/hashx"
	"ebv/internal/ingest"
	"ebv/internal/merkle"
	"ebv/internal/script"
	"ebv/internal/statusdb"
	"ebv/internal/txmodel"
	"ebv/internal/vcache"
)

// EBVValidator validates EBV blocks with the efficient mechanism:
// header-backed Existence Validation, bit-vector Unspent Validation,
// and proof-carried Script Validation. Its only state is the header
// chain and the in-memory bit-vector set — nothing on the validation
// path touches disk. Every entry point — ConnectBlock, Preverify and
// ConnectPreverified, ValidateTx and ValidateTxsBatch — runs the one
// validation kernel (kernel.go): the per-tx verifier, then the ordered
// reducer with the status database as its UV oracle.
type EBVValidator struct {
	status         *statusdb.DB
	engine         *script.Engine
	headers        HeaderSource
	workers        int
	vcache         *vcache.Cache
	blockOutputsFn BlockOutputsFunc
}

// EBVOption configures an EBVValidator.
type EBVOption func(*EBVValidator)

// WithParallelValidation runs the kernel's per-tx verifier —
// consistency binding, sighash, and per-input EV (leaf hash + Merkle
// fold against the stored header) and SV — for a block's transactions
// on up to workers goroutines, the paper's future-work direction of
// optimizing SV (§VI-D). The ordered reducer (UV, duplicate spends,
// maturity, value conservation) stays sequential, so acceptance,
// rejection, and the reported error are identical at every width.
// workers <= 1 verifies on the calling goroutine.
func WithParallelValidation(workers int) EBVOption {
	return func(v *EBVValidator) { v.workers = workers }
}

// WithVerificationCache installs a verified-proof cache: inputs whose
// cache key — a digest binding the body bytes (MBr, Us, ELs, height,
// relative index), the transaction sighash, and the stored header at
// the proof's height — was recorded by an earlier successful check
// skip the EV Merkle fold and the SV script execution. UV, duplicate-
// spend detection, maturity, and value conservation always run live:
// they depend on mutable chain state a past verdict cannot speak for.
// Every entry point consults and populates the cache, so mempool
// admission pre-warms block validation on the relay path.
func WithVerificationCache(c *vcache.Cache) EBVOption {
	return func(v *EBVValidator) { v.vcache = c }
}

// NewEBVValidator wires the EBV validator to its status database,
// script engine, and header chain.
func NewEBVValidator(status *statusdb.DB, engine *script.Engine, headers HeaderSource, opts ...EBVOption) *EBVValidator {
	v := &EBVValidator{status: status, engine: engine, headers: headers}
	for _, o := range opts {
		o(v)
	}
	return v
}

// Status exposes the underlying bit-vector set (memory reporting).
func (v *EBVValidator) Status() *statusdb.DB { return v.status }

// Cache exposes the verified-proof cache, nil when disabled.
func (v *EBVValidator) Cache() *vcache.Cache { return v.vcache }

// cacheKey derives the verified-proof cache key for one input: a
// digest over the body hash (which covers the MBr branch, unlock
// script, ELs bytes, height and relative index), the transaction
// sighash, and the stored header's Merkle root plus the height itself.
// Binding the stored root means a reorg that replaces the header at
// the proof's height silently invalidates every entry minted against
// the old header. ok is false when the cache is disabled or no header
// is stored at the body's height — the miss path then reports the
// missing header exactly as the uncached validator would.
func (v *EBVValidator) cacheKey(body *txmodel.InputBody, sigHash hashx.Hash) (vcache.Key, bool) {
	if v.vcache == nil {
		return vcache.Key{}, false
	}
	hdr, ok := v.headers.Header(body.Height)
	if !ok {
		return vcache.Key{}, false
	}
	bodyHash := body.Hash()
	var buf [3*hashx.Size + 8]byte
	copy(buf[0:hashx.Size], bodyHash[:])
	copy(buf[hashx.Size:2*hashx.Size], sigHash[:])
	copy(buf[2*hashx.Size:3*hashx.Size], hdr.MerkleRoot[:])
	binary.LittleEndian.PutUint64(buf[3*hashx.Size:], body.Height)
	return vcache.Key(hashx.Sum(buf[:])), true
}

// evInput performs Existence Validation for one input: fold the branch
// from the ELs leaf, compare against the stored header of the named
// height, and extract the spent output. It reads only immutable chain
// state, so the verifier calls it from worker goroutines.
func (v *EBVValidator) evInput(body *txmodel.InputBody) (*txmodel.TxOut, error) {
	hdr, ok := v.headers.Header(body.Height)
	if !ok {
		return nil, fmt.Errorf("%w: no header at height %d", ErrMissingOutput, body.Height)
	}
	leaf := body.PrevTx.LeafHash()
	if !merkle.Verify(leaf, body.Branch, hdr.MerkleRoot) {
		return nil, fmt.Errorf("%w: merkle branch does not reach root at height %d", ErrMissingOutput, body.Height)
	}
	out, ok := body.SpentOutput()
	if !ok {
		return nil, fmt.Errorf("%w: relative index %d out of range", ErrBadProof, body.RelIndex)
	}
	return out, nil
}

// ConnectBlock fully validates b as the next block and applies its
// effect to the bit-vector set. On failure the set is untouched.
func (v *EBVValidator) ConnectBlock(b *blockmodel.EBVBlock) (*Breakdown, error) {
	return v.ConnectBlockIn(b, nil)
}

// ConnectBlockIn is ConnectBlock with the caller's ingest scratch: the
// spend, probe-result, and duplicate-detection buffers are recycled
// from it, which is what makes a warm (cache-hitting) connect run
// allocation-free. A nil s takes a pooled scratch (ingest.Get) for the
// call. The scratch must not serve another in-flight block
// concurrently; b may be a block previously decoded with the same
// scratch. It is Preverify and ConnectPreverified back to back on the
// caller's state.
func (v *EBVValidator) ConnectBlockIn(b *blockmodel.EBVBlock, s *ingest.Scratch) (*Breakdown, error) {
	pv, err := v.preverify(b, v.workers, true)
	if err != nil {
		return &pv.bd, err
	}
	return v.connect(b, pv, s)
}

// checkLink verifies b extends the header source's tip. Preverify runs
// it ahead of checkBody, and ConnectPreverified re-runs it against the
// committed chain — the header view a Preverify saw may have included
// speculative, since-discarded predecessors.
func (v *EBVValidator) checkLink(b *blockmodel.EBVBlock) error {
	tip, hasTip := v.headers.TipHeight()
	switch {
	case !hasTip:
		if b.Header.Height != 0 {
			return fmt.Errorf("%w: genesis must have height 0", ErrBadLink)
		}
	case b.Header.Height != tip+1:
		return fmt.Errorf("%w: height %d after tip %d", ErrBadLink, b.Header.Height, tip)
	default:
		prev, _ := v.headers.Header(tip)
		if b.Header.PrevBlock != prev.Hash() {
			return fmt.Errorf("%w: prev hash mismatch", ErrBadLink)
		}
	}
	return nil
}

// checkBody is the block structure check short of the tip link:
// coinbase first, the output cap, proof of work, stake positions, and
// the Merkle root over the tidy leaves.
func (v *EBVValidator) checkBody(b *blockmodel.EBVBlock) error {
	if len(b.Txs) == 0 || !b.Txs[0].Tidy.IsCoinbase() {
		return ErrNoCoinbase
	}
	if b.TotalOutputs() > blockmodel.MaxBlockOutputs {
		return fmt.Errorf("%w: too many outputs", ErrInvalidBlock)
	}
	if !b.Header.MeetsTarget() {
		return fmt.Errorf("%w: proof of work", ErrInvalidBlock)
	}
	if err := b.CheckStakePositions(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadStakePos, err)
	}
	if merkle.Root(b.TxLeaves()) != b.Header.MerkleRoot {
		return ErrBadMerkleRoot
	}
	return nil
}

// ValidateTx checks a standalone EBV transaction against the current
// chain state (mempool admission): ValidateTxsBatch with one
// transaction, on the calling goroutine. It does not mutate the status
// database.
func (v *EBVValidator) ValidateTx(tx *txmodel.EBVTx) error {
	return v.ValidateTxsBatch([]*txmodel.EBVTx{tx}, 1, nil)[0]
}

// ValidateTxsBatch checks len(txs) standalone transactions against the
// current chain state: the per-tx verifier on up to workers
// goroutines, one batched status-database probe as the UV oracle for
// every input of every transaction, then the ordered reducer per
// transaction, judging maturity at the earliest height the batch could
// be mined. errs[i] is txs[i]'s verdict, independent of the other
// transactions (duplicate spends are detected within a transaction
// only, and one failure cancels nothing). Nothing may mutate the status
// database between the probe and the caller consuming the verdicts;
// the admission service holds that by construction (verdicts are
// committed to the pool before the next block connect revalidates).
//
// The verifier runs before UV verdicts exist, so an input whose EV and
// SV pass enters the verified-proof cache even when its UV probe comes
// back negative. That is sound — a cache entry asserts EV+SV, never
// unspentness — and verdict-neutral.
//
// s supplies the spend, probe-result and dedup buffers; it must not
// serve another batch or block concurrently. A nil s takes a pooled
// scratch for the call, so one-at-a-time ValidateTx calls share warm
// buffers.
func (v *EBVValidator) ValidateTxsBatch(txs []*txmodel.EBVTx, workers int, s *ingest.Scratch) []error {
	if s == nil {
		s = ingest.Get()
		defer s.Release()
	}
	errs := make([]error, len(txs))
	height := uint64(0)
	if tip, ok := v.headers.TipHeight(); ok {
		height = tip + 1
	}
	slab := takeSlab(txs)
	defer slab.release()
	tvs := slab.txs
	runWorkers(workers, len(txs), func(i int) bool {
		v.verifyTx(txs[i], &tvs[i])
		return true // every submitter gets a verdict
	})
	uv := v.probeUV(collectSpends(txs, s), s)
	seen := s.Seen()
	idx := 0
	for i, tx := range txs {
		if tvs[i].coinbase {
			errs[i] = ErrStandaloneCoinbase
		} else {
			_, errs[i] = reduceTx(tx, &tvs[i], height, uv, idx, seen)
		}
		// Duplicate detection is per transaction: forget its spends.
		next := idx + len(tx.Bodies)
		for _, sp := range uv.spends[idx:next] {
			delete(seen, sp)
		}
		idx = next
	}
	return errs
}

// VerifyStateless runs the kernel on b the way a node without state
// can: the structure check minus the tip link, the per-tx verifier,
// and the ordered reducer at b's height with no UV oracle and no
// commit. hs resolves proof heights; only heights below b's own are
// consulted — the view a full node connecting b has. Apart from the
// link (the caller anchors b to its own header chain) and UV, the
// verdict and its text are exactly ConnectBlock's.
func VerifyStateless(b *blockmodel.EBVBlock, hs HeaderSource, eng *script.Engine) error {
	v := &EBVValidator{engine: eng, headers: headersBelow{hs, b.Header.Height}}
	pv, err := v.preverify(b, 1, false)
	if err != nil {
		return err
	}
	defer pv.release()
	s := ingest.Get()
	defer s.Release()
	return reduceBlock(b, pv.slab.txs, uvProbes{spends: collectSpends(b.Txs[1:], s)}, s.Seen())
}

// headersBelow is a header source restricted to the heights below a
// block's own.
type headersBelow struct {
	hs     HeaderSource
	height uint64
}

func (h headersBelow) Header(height uint64) (blockmodel.Header, bool) {
	if height >= h.height {
		return blockmodel.Header{}, false
	}
	return h.hs.Header(height)
}

func (h headersBelow) TipHeight() (uint64, bool) { return h.height - 1, h.height > 0 }

// DisconnectBlock reverses the tip block during a reorg: the block's
// outputs leave the status database and the bits its inputs cleared
// are restored. b must be the block at the validator's tip (the caller
// truncates its chain store afterwards). EBV needs no undo data — the
// block's own input bodies carry everything required to restore the
// spent bits, one more payoff of proof-carrying inputs.
func (v *EBVValidator) DisconnectBlock(b *blockmodel.EBVBlock) error {
	tip, ok := v.headers.TipHeight()
	if !ok || b.Header.Height != tip {
		return fmt.Errorf("%w: disconnect height %d at tip %d", ErrBadLink, b.Header.Height, tip)
	}
	hdr, _ := v.headers.Header(tip)
	if hdr.Hash() != b.Header.Hash() {
		return fmt.Errorf("%w: block is not the stored tip", ErrBadLink)
	}
	restores := make([]statusdb.Restore, 0, b.TotalInputs())
	for _, tx := range b.Txs {
		for i := range tx.Bodies {
			body := &tx.Bodies[i]
			// NOutputs recreates vectors that were deleted as fully
			// spent. When the vector is still live its own length is
			// authoritative; only a deleted (fully spent) vector needs
			// the node's resolver (SetBlockOutputsFunc), and silently
			// guessing 0 there would corrupt the recreated vector — so
			// a missing resolver is a hard error in that case.
			n, live := v.status.VectorLen(body.Height)
			if !live {
				if v.blockOutputsFn == nil {
					return fmt.Errorf("%w: fully spent vector at height %d", ErrNoBlockOutputs, body.Height)
				}
				n = v.blockOutputsFn(body.Height)
				if n <= 0 {
					return fmt.Errorf("%w: resolver returned %d outputs for height %d", ErrNoBlockOutputs, n, body.Height)
				}
			}
			restores = append(restores, statusdb.Restore{
				Height:   body.Height,
				Pos:      body.AbsPosition(),
				NOutputs: n,
			})
		}
	}
	return v.status.Disconnect(b.Header.Height, restores)
}

// BlockOutputsFunc resolves the total output count of a stored block,
// needed to recreate fully spent vectors during disconnects.
type BlockOutputsFunc func(height uint64) int

// SetBlockOutputsFunc installs the resolver (nodes wire it to their
// chain store).
func (v *EBVValidator) SetBlockOutputsFunc(f BlockOutputsFunc) { v.blockOutputsFn = f }
