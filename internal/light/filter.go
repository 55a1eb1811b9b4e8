package light

import (
	"encoding/binary"
	"fmt"

	"ebv/internal/script"
	"ebv/internal/txmodel"
	"ebv/internal/varint"
)

// Filter size bounds, enforced by DecodeFilter on the serve side so a
// subscriber cannot pin unbounded server memory. A wallet watching a
// few hundred addresses and its own unspent outputs fits with room to
// spare.
const (
	// MaxPatterns bounds the watched script data elements per filter.
	MaxPatterns = 1024
	// MaxPatternSize bounds one pattern (a P2PKH address element is 20
	// bytes; 80 leaves room for raw public keys and small custom
	// elements).
	MaxPatternSize = 80
	// MaxOutpoints bounds the watched outpoints per filter.
	MaxOutpoints = 4096
)

// Outpoint names one output by its EBV coordinates: the height of the
// block that created it and its absolute position within that block —
// the same (height, position) pair Unspent Validation probes, derived
// on the spending side as StakePos + relative index.
type Outpoint struct {
	Height uint64
	Pos    uint32
}

// Filter is one subscriber's interest set: transactions are matched if
// any created output's locking script pushes a watched pattern (for
// P2PKH, the pattern is the 20-byte address element), or if any input
// spends a watched outpoint.
type Filter struct {
	Patterns  [][]byte
	Outpoints []Outpoint
}

// Encode appends the filter serialization to dst:
//
//	varint npatterns | npatterns × (varint len | bytes)
//	varint noutpoints | noutpoints × (varint height | varint pos)
func (f *Filter) Encode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(f.Patterns)))
	for _, p := range f.Patterns {
		dst = binary.AppendUvarint(dst, uint64(len(p)))
		dst = append(dst, p...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.Outpoints)))
	for _, op := range f.Outpoints {
		dst = binary.AppendUvarint(dst, op.Height)
		dst = binary.AppendUvarint(dst, uint64(op.Pos))
	}
	return dst
}

// DecodeFilter parses a filter, enforcing the size bounds. The decoded
// patterns own their memory (no aliasing of data — the serve side
// retains filters long after the frame buffer is recycled).
func DecodeFilter(data []byte) (*Filter, error) {
	f := &Filter{}
	np, n := varint.Uvarint(data)
	if n <= 0 || np > MaxPatterns {
		return nil, fmt.Errorf("light: bad filter pattern count")
	}
	data = data[n:]
	f.Patterns = make([][]byte, 0, np)
	for i := uint64(0); i < np; i++ {
		l, n := varint.Uvarint(data)
		if n <= 0 || l > MaxPatternSize || uint64(len(data)) < uint64(n)+l {
			return nil, fmt.Errorf("light: bad filter pattern %d", i)
		}
		p := make([]byte, l)
		copy(p, data[n:uint64(n)+l])
		f.Patterns = append(f.Patterns, p)
		data = data[uint64(n)+l:]
	}
	no, n := varint.Uvarint(data)
	if n <= 0 || no > MaxOutpoints {
		return nil, fmt.Errorf("light: bad filter outpoint count")
	}
	data = data[n:]
	f.Outpoints = make([]Outpoint, 0, no)
	for i := uint64(0); i < no; i++ {
		h, hn := varint.Uvarint(data)
		if hn <= 0 {
			return nil, fmt.Errorf("light: bad filter outpoint %d", i)
		}
		p, pn := varint.Uvarint(data[hn:])
		if pn <= 0 || p > 1<<32-1 {
			return nil, fmt.Errorf("light: bad filter outpoint %d", i)
		}
		f.Outpoints = append(f.Outpoints, Outpoint{Height: h, Pos: uint32(p)})
		data = data[hn+pn:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("light: %d trailing filter bytes", len(data))
	}
	return f, nil
}

// MatchTx reports whether tx matches the filter: a created output
// locks to a watched pattern, or an input spends a watched outpoint.
// This is the client-side mirror of the server's registry matching —
// a client re-checks pushed blocks so a server cannot spam it with
// irrelevant notifications.
func (f *Filter) MatchTx(tx *txmodel.EBVTx) bool {
	var elems [][]byte
	for i := range tx.Tidy.Outputs {
		elems = script.PushedData(elems[:0], tx.Tidy.Outputs[i].LockScript)
		for _, e := range elems {
			for _, p := range f.Patterns {
				if string(e) == string(p) {
					return true
				}
			}
		}
	}
	for i := range tx.Bodies {
		body := &tx.Bodies[i]
		for _, op := range f.Outpoints {
			if op.Height == body.Height && op.Pos == body.AbsPosition() {
				return true
			}
		}
	}
	return false
}
