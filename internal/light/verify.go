// Package light implements the light-client tier: a node that holds
// only the header chain, subscribes to a full node with an
// address/outpoint filter, and fully validates just the blocks that
// matter to it using the proofs EBV transactions already carry.
//
// The trust model follows Dietcoin/CompactChain: a light client runs
// full verification minus state. VerifyBlock is the core validation
// kernel minus UV — the same per-tx verifier (EV against the header
// chain the client checked itself, SV against the carried locking
// scripts, the stake-position binding that defeats faked positions)
// and the same ordered reducer, with no UV oracle. What a light client
// cannot check is Unspent Validation: the bit-vector set lives only on
// full nodes, so a light client detects invalid blocks and forged
// history but not a double spend buried in a block it never inspected.
// That is exactly the slice of validation the paper's proof-carrying
// design makes portable, and exactly what the tier verifies.
package light

import (
	"errors"
	"fmt"

	"ebv/internal/blockmodel"
	"ebv/internal/core"
	"ebv/internal/script"
)

// Verification errors. ErrBadBlock is the full validator's root error:
// every rejection other than ErrUnknownHeader wraps it, with the text a
// full node reports for the same block.
var (
	ErrUnknownHeader = errors.New("light: block header not on the header chain")
	ErrBadBlock      = core.ErrInvalidBlock
)

// VerifyBlock fully validates a serialized EBV block against the
// header chain using only carried proofs: the validation kernel minus
// UV. The block's header must be the chain's stored header at its
// height — anchoring the block to the PoW-checked chain in place of a
// full node's tip link — and then core.VerifyStateless runs the
// structure check, the per-tx verifier (consistency, sighash, EV
// against this header chain, SV) and the ordered reducer (duplicate
// spends, maturity, value conservation, subsidy) at the block's height
// with no UV oracle.
//
// Unspent Validation is what is deliberately absent: the bit-vector
// set lives on full nodes only, so a light client cannot see a double
// spend against history outside this block. Every other verdict, and
// its error text, is the full validator's.
func VerifyBlock(hc *HeaderChain, raw []byte, eng *script.Engine) (*blockmodel.EBVBlock, error) {
	b, err := blockmodel.DecodeEBVBlock(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBlock, err)
	}
	stored, ok := hc.Header(b.Header.Height)
	if !ok || stored.Hash() != b.Header.Hash() {
		return nil, ErrUnknownHeader
	}
	if err := core.VerifyStateless(b, hc, eng); err != nil {
		return nil, err
	}
	return b, nil
}
