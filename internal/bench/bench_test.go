package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// tinyOptions keeps unit runs of the harness fast.
func tinyOptions(t *testing.T) Options {
	o := QuickOptions()
	o.Blocks = 400
	o.TxScale = 0.006
	o.Repeats = 2
	// At this scale the UTXO set is tiny; shrink the budget and slow
	// the disk so the paper's disk-bound regime still appears.
	o.MemLimit = 128 << 10
	o.ReadLatency = time.Millisecond
	o.DataDir = t.TempDir()
	o.ArtifactDir = t.TempDir()
	return o
}

func newTestEnv(t *testing.T) *Env {
	t.Helper()
	e, err := NewEnv(tinyOptions(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestEnvBuildAndCache(t *testing.T) {
	o := tinyOptions(t)
	e, err := NewEnv(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.ClassicChain.Count() != o.Blocks || e.EBVChain.Count() != o.Blocks {
		t.Fatalf("chain counts %d/%d", e.ClassicChain.Count(), e.EBVChain.Count())
	}
	gen1 := e.Gen.TotalTxs
	e.Close()

	// Second open must reuse the cache and restore ground truth.
	var log bytes.Buffer
	e2, err := NewEnv(o, &log)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if !strings.Contains(log.String(), "reusing cached chains") {
		t.Fatalf("expected cache reuse, log: %s", log.String())
	}
	if e2.Gen.TotalTxs != gen1 {
		t.Fatalf("ground truth not restored: %d vs %d", e2.Gen.TotalTxs, gen1)
	}
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	e := newTestEnv(t)
	var out bytes.Buffer
	if err := RunByID(e, "all", &out); err != nil {
		t.Fatal(err)
	}
	for _, marker := range []string{
		"Fig 1:", "Fig 4a:", "Fig 4b:", "Fig 5:", "Fig 14:",
		"Fig 15:", "Fig 16a:", "Fig 16b:", "Fig 17a:", "Fig 17b:", "Fig 18:",
	} {
		if !strings.Contains(out.String(), marker) {
			t.Fatalf("output missing %q", marker)
		}
	}
}

func TestRunByIDErrors(t *testing.T) {
	e := newTestEnv(t)
	var out bytes.Buffer
	if err := RunByID(e, "fig99", &out); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

func TestMemorySeriesShape(t *testing.T) {
	e := newTestEnv(t)
	samples, err := e.memorySeries(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 10 {
		t.Fatalf("too few samples: %d", len(samples))
	}
	last := samples[len(samples)-1]
	first := samples[0]
	if last.UTXOCount <= first.UTXOCount {
		t.Fatal("UTXO count must grow")
	}
	if last.EBVBytes >= last.UTXOBytes {
		t.Fatalf("EBV %d must be below Bitcoin %d", last.EBVBytes, last.UTXOBytes)
	}
	if last.EBVBytes > last.EBVDenseBytes {
		t.Fatalf("optimized %d must be <= dense %d", last.EBVBytes, last.EBVDenseBytes)
	}
	// Cache: second call returns identical slice.
	again, err := e.memorySeries(nil)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &samples[0] {
		t.Fatal("memory series must be cached")
	}
}

func TestWindowSeriesShape(t *testing.T) {
	e := newTestEnv(t)
	ws, err := e.windowSeries(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws.Bitcoin) != WindowLen || len(ws.EBV) != WindowLen {
		t.Fatalf("window lengths %d/%d", len(ws.Bitcoin), len(ws.EBV))
	}
	for i := range ws.Bitcoin {
		if ws.Bitcoin[i].Inputs != ws.EBV[i].Inputs {
			t.Fatalf("block %d input counts differ", i)
		}
	}
	var btcTotal, ebvTotal time.Duration
	for i := range ws.Bitcoin {
		btcTotal += ws.Bitcoin[i].Total()
		ebvTotal += ws.EBV[i].Total()
	}
	if ebvTotal >= btcTotal {
		t.Fatalf("EBV window %v must beat baseline %v", ebvTotal, btcTotal)
	}
	if len(ws.PrefixBitcoin) == 0 || len(ws.PrefixEBV) == 0 {
		t.Fatal("prefix samples missing")
	}
}

func TestValidationModelFit(t *testing.T) {
	m := validationModel([]time.Duration{10, 10, 10, 10})
	if m.Mean != 10 || m.StdDev != 0 {
		t.Fatalf("constant fit: %+v", m)
	}
	m2 := validationModel([]time.Duration{0, 20})
	if m2.Mean != 10 || m2.StdDev != 10 {
		t.Fatalf("two-point fit: %+v", m2)
	}
	if m3 := validationModel(nil); m3.Mean != 0 {
		t.Fatalf("empty fit: %+v", m3)
	}
}

func TestTableRendering(t *testing.T) {
	tab := newTable("col", "value")
	tab.row("a", time.Millisecond)
	tab.row("bee", 3.14159)
	tab.row("c", 42)
	var out bytes.Buffer
	tab.write(&out, "Title")
	s := out.String()
	for _, want := range []string{"== Title ==", "col", "1.00ms", "3.14", "42", "bee"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in %s", want, s)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if fmtDur(0) != "0" {
		t.Fatal(fmtDur(0))
	}
	if fmtDur(1500*time.Nanosecond) != "1.5µs" {
		t.Fatal(fmtDur(1500 * time.Nanosecond))
	}
	if fmtDur(2500*time.Millisecond) != "2.500s" {
		t.Fatal(fmtDur(2500 * time.Millisecond))
	}
	if fmtBytes(512) != "512B" || fmtBytes(2048) != "2.00KB" {
		t.Fatal("fmtBytes")
	}
	if fmtBytes(3<<20) != "3.00MB" || fmtBytes(5<<30) != "5.00GB" {
		t.Fatal("fmtBytes large")
	}
	if pct(1, 0) != "n/a" || pct(1, 2) != "50.0%" {
		t.Fatal("pct")
	}
	if reduction(0, 1) != "n/a" || reduction(10, 1) != "90.0%" {
		t.Fatal("reduction")
	}
}

func TestWindowStartAndPeriodLen(t *testing.T) {
	e := newTestEnv(t)
	ws := e.WindowStart()
	if ws == 0 || int(ws) >= e.Opts.Blocks {
		t.Fatalf("window start %d out of range", ws)
	}
	ratio := float64(ws) / float64(e.Opts.Blocks)
	if ratio < 0.89 || ratio > 0.92 {
		t.Fatalf("window ratio %.3f not near 590k/650k", ratio)
	}
	if e.PeriodLen() != e.Opts.Blocks/13 {
		t.Fatalf("period len %d", e.PeriodLen())
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	e := newTestEnv(t)
	var out bytes.Buffer
	if err := RunByID(e, "ablation-dbcache,ablation-simcost,ablation-latency,ablation-vector", &out); err != nil {
		t.Fatal(err)
	}
	for _, marker := range []string{
		"memory budget", "signature-verify cost", "disk model", "sparse-vector optimization",
	} {
		if !strings.Contains(out.String(), marker) {
			t.Fatalf("output missing %q", marker)
		}
	}
}

func TestAblationCacheRuns(t *testing.T) {
	out, art := runAblation(t, "ablation-cache")
	if !strings.Contains(out, "verified-proof cache") || !strings.Contains(out, "warm") {
		t.Fatalf("missing ablation-cache output:\n%s", out)
	}
	wantArms(t, art, "off", "4096/cold", "4096/warm", "65536/cold", "65536/warm")
	for _, a := range art.Arms {
		hits, misses := a.Metrics["cache_hits"], a.Metrics["cache_misses"]
		switch {
		case a.Arm == "off" && (hits != 0 || misses != 0):
			t.Fatalf("uncached arm must report no cache traffic: %+v", a)
		case strings.HasSuffix(a.Arm, "/cold") && hits != 0:
			t.Fatalf("cold arm must not hit (every window proof is new): %+v", a)
		case strings.HasSuffix(a.Arm, "/warm") && (hits == 0 || misses != 0):
			t.Fatalf("warm arm must hit on every window input: %+v", a)
		}
		// Counters are scoped to the measurement window: every eviction
		// requires an insertion, and window insertions are bounded by
		// the window's cache traffic. The pre-window replay used to
		// leak its evictions into these rows (e.g. thousands of
		// evictions on a row with zero misses).
		if a.Arm != "off" && a.Metrics["evictions"] > hits+misses {
			t.Fatalf("evictions exceed window cache traffic (stat carry-over from warm-up replay): %+v", a)
		}
	}
}

func TestEverythingIncludesAblations(t *testing.T) {
	ids := map[string]bool{}
	for _, ex := range Experiments() {
		ids[ex.ID] = true
	}
	for _, want := range []string{"fig1", "fig18", "ablation-cache", "ablation-vector", "ablation-overhead"} {
		if !ids[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
}

func TestAblationOverheadRuns(t *testing.T) {
	out, art := runAblation(t, "ablation-overhead")
	if !strings.Contains(out, "uv-floor") || !strings.Contains(out, "zero-copy") {
		t.Fatalf("missing ablation-overhead output:\n%s", out)
	}
	wantArms(t, art, "uv-floor", "probe-only", "copy-decode", "zero-copy")
	if len(art.Arms) != 4 {
		t.Fatalf("want exactly 4 arms, got %d", len(art.Arms))
	}
	for _, a := range art.Arms {
		if a.Metrics["inputs"] <= 0 {
			t.Fatalf("arm %s measured no inputs: %+v", a.Arm, a)
		}
	}
}

func TestFig14FullRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	e := newTestEnv(t)
	var out bytes.Buffer
	if err := RunByID(e, "fig14full", &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "full block size") {
		t.Fatal("missing fig14full output")
	}
}

func TestTraceGenSpendRatio(t *testing.T) {
	g := newTraceGen(1, 400)
	totalOut, totalSpend := 0, 0
	for h := 0; h < 400; h++ {
		nOut, spends := g.nextBlock(h)
		totalOut += nOut
		totalSpend += len(spends)
		for _, s := range spends {
			if s.Height >= uint64(h) {
				t.Fatalf("block %d spends its own or future output", h)
			}
		}
	}
	ratio := float64(totalSpend) / float64(totalOut)
	if ratio < 0.80 || ratio > 0.99 {
		t.Fatalf("spend ratio %.3f out of mainnet-like range", ratio)
	}
	if g.live != totalOut-totalSpend {
		t.Fatalf("pool accounting: live %d vs %d", g.live, totalOut-totalSpend)
	}
}

func TestRelatedProofsRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	e := newTestEnv(t)
	var out bytes.Buffer
	if err := RunByID(e, "related-proofs", &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Related work") || !strings.Contains(s, "never expire") {
		t.Fatalf("missing related-proofs output:\n%s", s)
	}
}

func TestNetIBDRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	e := newTestEnv(t)
	var out bytes.Buffer
	if err := RunByID(e, "net-ibd", &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Networked IBD") {
		t.Fatal("missing net-ibd output")
	}
}

func TestAblationBootstrapRuns(t *testing.T) {
	out, art := runAblation(t, "ablation-bootstrap")
	if !strings.Contains(out, "fast-bootstrap state sync") {
		t.Fatalf("missing ablation-bootstrap output:\n%s", out)
	}
	full, fast := art.Arms[len(art.Arms)-2], art.Arms[len(art.Arms)-1]
	if !strings.HasPrefix(full.Arm, "full-ibd") || !strings.HasPrefix(fast.Arm, "fast-sync") {
		t.Fatalf("last arms %q, %q; want the longest chain's full-ibd and fast-sync", full.Arm, fast.Arm)
	}
	if fast.Metrics["bytes"] >= full.Metrics["bytes"] {
		t.Fatalf("fast sync must transfer less than full IBD: %+v vs %+v", fast, full)
	}
}

func TestAblationReorgRuns(t *testing.T) {
	out, art := runAblation(t, "ablation-reorg")
	if !strings.Contains(out, "reorg cost vs depth") {
		t.Fatalf("missing ablation-reorg output:\n%s", out)
	}
	// Two systems per depth, every phase measured on real work.
	if len(art.Arms) != 8 {
		t.Fatalf("want 4 depths x 2 systems, got %d arms", len(art.Arms))
	}
	for _, a := range art.Arms {
		if !strings.HasPrefix(a.Arm, "ebv d=") && !strings.HasPrefix(a.Arm, "bitcoin d=") {
			t.Fatalf("unknown arm %q", a.Arm)
		}
		if a.Metrics["disconnect_ns"] <= 0 || a.Metrics["reconnect_ns"] <= 0 {
			t.Fatalf("unmeasured phase: %+v", a)
		}
	}
}

func TestAblationLightRuns(t *testing.T) {
	out, art := runAblation(t, "ablation-light")
	if !strings.Contains(out, "per 1k subscribers") {
		t.Fatalf("missing ablation-light output:\n%s", out)
	}
	arms := wantArms(t, art, "converge/block", "serve-match/block", "client-verify/block",
		"full-ibd/block", "sim-1000-last-client")
	serve, client := arms["serve-match/block"], arms["client-verify/block"]
	if serve.Metrics["subscribers"] <= 0 || serve.Metrics["pushed_blocks"] <= 0 ||
		serve.Metrics["bytes_per_1k_subs_per_block"] <= 0 {
		t.Fatalf("empty serve side: %+v", serve)
	}
	if client.Metrics["full_block_downloads"] != 0 {
		t.Fatalf("light clients downloaded %v full blocks", client.Metrics["full_block_downloads"])
	}
}

// TestAblationArtifacts runs every ablation that writes a BENCH_*.json
// artifact, each into a nested artifact directory that does not exist
// yet, decodes the artifact in the shared schema and checks that every
// expected arm is present with a positive median. The relay entry also
// carries the compact-relay byte gates.
func TestAblationArtifacts(t *testing.T) {
	for _, c := range []struct {
		id    string
		arms  []string
		check func(t *testing.T, arms map[string]armResult)
	}{
		{id: "ablation-overhead", arms: []string{"uv-floor", "probe-only", "copy-decode", "zero-copy"}},
		{id: "ablation-cache", arms: []string{"off", "4096/cold", "4096/warm", "65536/cold", "65536/warm"}},
		{id: "ablation-parallel", arms: []string{"workers=1", "workers=2", "workers=4"}},
		{id: "ablation-shards", arms: []string{"shards=1", "shards=2", "shards=4", "shards=8"}},
		{id: "ablation-ibdpipe", arms: []string{"sequential", "per-block-parallel",
			"pipelined d=1 w=1", "pipelined d=2 w=1", "pipelined d=4 w=1", "pipelined d=8 w=1"}},
		{id: "ablation-admission", arms: []string{"sequential", "batched b=1 w=1", "batched b=64 w=1"}},
		{id: "ablation-reorg", arms: []string{"ebv d=1", "bitcoin d=1", "ebv d=32", "bitcoin d=32"}},
		{id: "ablation-bootstrap", arms: []string{"full-ibd L=300", "fast-sync L=300"}},
		{id: "ablation-light", arms: []string{"converge/block", "client-verify/block"}},
		{id: "ablation-relay", arms: []string{"full 0%", "full 95%", "compact 0%", "compact 95%", "compact 100%"},
			check: func(t *testing.T, arms map[string]armResult) {
				// A fully warmed receiver fetches no transactions, and at
				// 95% mempool overlap compact delivery costs under 10% of
				// the full-block bytes.
				if got := arms["compact 100%"].Metrics["txns_requested"]; got != 0 {
					t.Errorf("warm receiver fetched %v txns, want 0", got)
				}
				if c, f := arms["compact 95%"].Median, arms["full 95%"].Median; c*10 >= f {
					t.Errorf("compact delivery at 95%% overlap cost %v B vs %v B full (>= 10%%)", c, f)
				}
			}},
	} {
		t.Run(c.id, func(t *testing.T) {
			_, art := runAblation(t, c.id)
			arms := wantArms(t, art, c.arms...)
			if art.Experiment != c.id || art.CPUs <= 0 || art.Rounds <= 0 {
				t.Fatalf("bad artifact header: %q, %d CPUs, %d rounds", art.Experiment, art.CPUs, art.Rounds)
			}
			for _, a := range art.Arms {
				if len(a.Samples) != art.Rounds && c.id != "ablation-light" {
					t.Errorf("arm %s: %d samples for %d rounds", a.Arm, len(a.Samples), art.Rounds)
				}
			}
			if c.check != nil {
				c.check(t, arms)
			}
		})
	}
}

// wantArms fails unless art holds every named arm and every arm has a
// positive median; it returns the arms by name.
func wantArms(t *testing.T, art artifact, names ...string) map[string]armResult {
	t.Helper()
	arms := map[string]armResult{}
	for _, a := range art.Arms {
		if !(a.Median > 0) {
			t.Errorf("%s: arm %q has median %v", art.Experiment, a.Arm, a.Median)
		}
		arms[a.Arm] = a
	}
	for _, n := range names {
		if _, ok := arms[n]; !ok {
			t.Errorf("%s: missing arm %q", art.Experiment, n)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	return arms
}

// shared runs each ablation at most once per test binary, on one Env
// built with the scale the ablation smokes have always used (-quick
// -blocks 300), so tests that inspect the same artifact share its run.
var shared struct {
	sync.Mutex
	env  *Env
	root string
	runs map[string]*ablationRun
}

type ablationRun struct {
	out string
	art artifact
	err error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if shared.env != nil {
		shared.env.Close()
		os.RemoveAll(shared.root)
	}
	os.Exit(code)
}

// runAblation returns the output and decoded artifact of experiment
// id, running it on first use into <root>/<id>/nested — a directory
// that does not exist beforehand, so the artifact writer must create
// it. The artifact must end with a newline.
func runAblation(t *testing.T, id string) (string, artifact) {
	t.Helper()
	if testing.Short() {
		t.Skip("full harness run")
	}
	shared.Lock()
	defer shared.Unlock()
	if shared.env == nil {
		root, err := os.MkdirTemp("", "ebv-bench-test-*")
		if err != nil {
			t.Fatal(err)
		}
		o := QuickOptions()
		o.Blocks = 300
		o.DataDir = filepath.Join(root, "data")
		env, err := NewEnv(o, nil)
		if err != nil {
			os.RemoveAll(root)
			t.Fatal(err)
		}
		shared.env, shared.root, shared.runs = env, root, map[string]*ablationRun{}
	}
	r := shared.runs[id]
	if r == nil {
		r = &ablationRun{}
		shared.runs[id] = r
		dir := filepath.Join(shared.root, id, "nested")
		shared.env.Opts.ArtifactDir = dir
		var out bytes.Buffer
		r.err = RunByID(shared.env, id, &out)
		r.out = out.String()
		if r.err == nil {
			var raw []byte
			raw, r.err = os.ReadFile(filepath.Join(dir, "BENCH_"+strings.TrimPrefix(id, "ablation-")+".json"))
			switch {
			case r.err != nil:
			case !bytes.HasSuffix(raw, []byte("\n")):
				r.err = fmt.Errorf("artifact does not end with a newline")
			default:
				r.err = json.Unmarshal(raw, &r.art)
			}
		}
	}
	if r.err != nil {
		t.Fatalf("%s: %v", id, r.err)
	}
	return r.out, r.art
}
