package main

import (
	"fmt"
	"os"
	"syscall"
)

// offHeap moves txs into one read-only file mapping at path and
// returns slices into it, with the function that unmaps it. A node
// process holds no corpus; kept on the Go heap, it would raise the
// collector's heap goal, so each phase would see one or two large
// collections, on a different share of its transactions each run,
// instead of the many small ones a node sees.
func offHeap(path string, txs [][]byte) ([][]byte, func(), error) {
	size := 0
	for _, tx := range txs {
		size += len(tx)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	buf := make([]byte, 0, size)
	for _, tx := range txs {
		buf = append(buf, tx...)
	}
	if _, err := f.Write(buf); err != nil {
		return nil, nil, fmt.Errorf("corpus file: %w", err)
	}
	if size == 0 {
		return nil, func() {}, nil
	}
	m, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("corpus mapping: %w", err)
	}
	out := make([][]byte, len(txs))
	off := 0
	for i, tx := range txs {
		out[i] = m[off : off+len(tx) : off+len(tx)]
		off += len(tx)
	}
	return out, func() { syscall.Munmap(m) }, nil
}
