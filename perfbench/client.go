package main

import (
	"bufio"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"ebv/internal/hashx"
	"ebv/internal/p2p/wire"
)

// ack is one transaction verdict as a submitter received it.
type ack struct {
	id   uint64 // request id: the transaction's corpus index
	code byte
	hash hashx.Hash // the pool id the node assigned
	sent time.Time
	at   time.Time
}

// submitter is one TCP connection that submits corpus transactions
// (kind tx, request id = corpus index) and reads their verdicts (kind
// txack), as ebvload does. One goroutine sends while the submitter's
// reader logs the acks; the log is the caller's to read once close
// has returned.
type submitter struct {
	conn   net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	onAck  func(ack) // optional; runs on the reader goroutine
	sentAt []atomic.Int64
	sends  atomic.Int64
	acks   atomic.Int64
	done   chan struct{}
	err    error // read error; valid after done is closed

	acked []bool
	codes []byte
	at    []time.Time
}

// dialSubmitter connects and completes the hello exchange for a
// corpus of n transactions. Echoing the server's height back keeps
// both sides from syncing blocks, and a featureless hello stays on the
// legacy protocol; block announcements that arrive anyway are skipped.
func dialSubmitter(addr string, n int, onAck func(ack)) (*submitter, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &submitter{
		conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn), onAck: onAck,
		sentAt: make([]atomic.Int64, n), done: make(chan struct{}),
		acked: make([]bool, n), codes: make([]byte, n), at: make([]time.Time, n),
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	hello, err := wire.Read(s.r)
	if err == nil && (hello.Kind != wire.Hello || hello.Features&wire.FeatureTxSubmit == 0) {
		err = fmt.Errorf("server hello kind %d features %08b does not offer tx submission", hello.Kind, hello.Features)
	}
	if err == nil {
		err = wire.Write(s.w, &wire.Message{Kind: wire.Hello, Height: hello.Height})
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	conn.SetReadDeadline(time.Time{})
	go s.readLoop()
	return s, nil
}

func (s *submitter) readLoop() {
	defer close(s.done)
	for {
		m, err := wire.Read(s.r)
		if err != nil {
			s.err = err
			return
		}
		if m.Kind != wire.TxAck || m.Height >= uint64(len(s.acked)) {
			continue
		}
		a := ack{id: m.Height, code: m.Code, hash: m.Hash, at: time.Now(),
			sent: time.Unix(0, s.sentAt[m.Height].Load())}
		s.acked[a.id], s.codes[a.id], s.at[a.id] = true, a.code, a.at
		if s.onAck != nil {
			s.onAck(a)
		}
		s.acks.Add(1)
	}
}

// send submits corpus transaction id.
func (s *submitter) send(id int, raw []byte) error {
	s.sentAt[id].Store(time.Now().UnixNano())
	s.sends.Add(1)
	s.conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	return wire.Write(s.w, &wire.Message{Kind: wire.Tx, Height: uint64(id), Payload: raw})
}

// waitAcks waits until every send so far is acked or the timeout
// passes.
func (s *submitter) waitAcks(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for s.acks.Load() < s.sends.Load() && time.Now().Before(deadline) {
		select {
		case <-s.done:
			return
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// close shuts the connection and waits for the reader to exit, after
// which the ack log is safe to read.
func (s *submitter) close() {
	s.conn.Close()
	<-s.done
}

// openLoop sends corpus transactions idx over s at their fixed due
// times (offsets from start) and records each send's lateness in
// late. It returns the first send error.
func (s *submitter) openLoop(start time.Time, due []time.Duration, idx []int, late []time.Duration, corpus [][]byte) error {
	return Pace(start, due, idx, late, func(i int) error { return s.send(i, corpus[i]) })
}
