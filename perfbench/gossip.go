package main

import (
	"fmt"
	"os"
	"runtime"

	"ebv/internal/admission"
	"ebv/internal/forkchoice"
	"ebv/internal/mempool"
	"ebv/internal/node"
	"ebv/internal/p2p"
	"ebv/internal/statesync"
)

// gossipNodeConfig is node.Config as cmd/ebvgossip builds it from its
// flag defaults. Only the data directory and the mempool caps — sized
// so the corpus fits without eviction — are deployment choices.
func gossipNodeConfig(dir string, poolTxs, poolBytes int) node.Config {
	return node.Config{
		Dir: dir, Optimize: true, StatusShards: 0,
		ParallelValidation: 1, VerifyCacheSize: 1 << 16, PipelineDepth: 0,
		Admission: &node.AdmissionConfig{
			Pool:    mempool.Config{MaxTxs: poolTxs, MaxBytes: poolBytes},
			Service: admission.Config{Workers: 1},
		},
	}
}

// openImported creates an ebvgossip-configured node under dir,
// replays the generated chain into it as ebvgossip -import does, and
// adds the import's timings to segs.
func openImported(dir string, ch *genChain, poolTxs, poolBytes int, segs *segTimes) (*node.EBVNode, error) {
	n, err := node.NewEBVNode(gossipNodeConfig(dir, poolTxs, poolBytes))
	if err != nil {
		return nil, err
	}
	var ins []int
	var walls []float64
	runtime.GC() // start every timed import from the same heap state
	_, err = node.RunIBDEBV(ch.store, n, 1, func(ps node.PeriodStats) {
		ins = append(ins, ps.Breakdown.Inputs)
		walls = append(walls, ms(ps.Wall))
	})
	if err != nil {
		n.Close()
		return nil, fmt.Errorf("import: %w", err)
	}
	segs.add(ins, walls)
	return n, nil
}

// gossipOptions are the per-role choices a deployment makes.
type gossipOptions struct {
	lightServe bool
	// onConnect observes every block the fork-choice engine connects.
	// p2p.Config.OnBlock fires once per accepted message, so a block
	// connected by adopting a stored orphan behind it never reaches it.
	onConnect func(raw []byte)
	// forks replaces the node's own fork-choice engine; traced runs
	// use it to time block connects.
	forks *forkchoice.Engine
}

// startGossip wires n into a p2p node listening on a free localhost
// port, as ebvgossip does with its defaults: snapshots served, tx
// submission, compact relay from the mempool, and fork choice.
func startGossip(n *node.EBVNode, opt gossipOptions) (*p2p.Node, string, error) {
	cfg := p2p.Config{
		ListenAddr: "127.0.0.1:0",
		MaxPeers:   64,
		Snapshots:  statesync.NewServer(n.Chain, n.Status),
		TxSubmit:   n.Admission,
		Relay:      n.Pool,
		LightServe: opt.lightServe,
	}
	cfg.Forks = opt.forks
	if cfg.Forks == nil {
		cfg.Forks = n.EnableForkChoice(forkConfig(opt.onConnect))
	}
	gn := p2p.NewNode(p2p.EBVChain{Node: n}, cfg)
	addr, err := gn.Start()
	if err != nil {
		return nil, "", err
	}
	return gn, addr, nil
}

// forkConfig is the fork-choice configuration ebvgossip uses by
// default, with an optional connect observer.
func forkConfig(onConnect func(raw []byte)) forkchoice.Config {
	return forkchoice.Config{
		OnConnect: onConnect,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
}
