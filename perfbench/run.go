package main

import (
	"fmt"
	"math/rand"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"origami/internal/client"
	"origami/internal/costmodel"
	"origami/internal/kvstore"
	"origami/internal/server"
	"origami/internal/telemetry"
	"origami/internal/trace"
)

const (
	// opDeadline is the per-op deadline: an op slower than this counts
	// as failed (class "deadline") even when it eventually succeeds.
	opDeadline = 2 * time.Second
	// stallGrace is how long the benchmark waits past the window for a
	// blocked op before abandoning it as a deadline failure.
	stallGrace = 3 * time.Second
	// maxStretch caps the window, stretched until the measured range is
	// complete, at this many times --seconds.
	maxStretch = 2
	// measureChunks is how many chunks the measured op range is cut
	// into; end-to-end timings are medians over them.
	measureChunks = 5
	// setupWorkers is the populate concurrency.
	setupWorkers = 32
)

// passConfig selects one pass: a cluster, a populated namespace, one
// timed window, and the correctness checks.
type passConfig struct {
	spec      spec
	seed      int64
	window    time.Duration
	setupReps int
	traced    bool
	dataDir   string
	smoke     bool // tiny sizes for the test suite
}

// measuredRange is the pass's measured op range: completions numbered
// (warm, warm+quota]. The smoke test's tiny traces get a short one.
func (c passConfig) measuredRange() (warm, quota int) {
	if c.smoke {
		return 50, 200
	}
	return c.spec.warmOps, c.spec.measureOps
}

// tenant is one trace replayed under its own root.
type tenant struct {
	root  string
	setup []trace.Op // root mkdir first
	// ops is the access trace, stored compactly: a trace of a million
	// ops would otherwise hold a million path strings.
	ops   []packedOp
	paths []string
	// outcome[i] is 0 not run, 1 ok, 2 failed for ops[i].
	outcome []uint8
}

// packedOp is a trace op whose paths index tenant.paths (dst -1: none).
type packedOp struct {
	typ       costmodel.OpType
	path, dst int32
}

// op unpacks access op i.
func (t *tenant) op(i int) trace.Op {
	o := t.ops[i]
	op := trace.Op{Type: o.typ, Path: t.paths[o.path]}
	if o.dst >= 0 {
		op.Dst = t.paths[o.dst]
	}
	return op
}

// newTenant re-roots tr under root and packs its access ops.
func newTenant(tr *trace.Trace, root string) *tenant {
	t := &tenant{root: root, setup: []trace.Op{{Type: costmodel.OpMkdir, Path: root}}}
	for _, op := range tr.Setup {
		op.Path = root + op.Path
		t.setup = append(t.setup, op)
	}
	index := map[string]int32{}
	intern := func(p string) int32 {
		if i, ok := index[p]; ok {
			return i
		}
		i := int32(len(t.paths))
		t.paths = append(t.paths, root+p)
		index[p] = i
		return i
	}
	t.ops = make([]packedOp, len(tr.Ops))
	for i, op := range tr.Ops {
		t.ops[i] = packedOp{typ: op.Type, path: intern(op.Path), dst: -1}
		if op.Dst != "" {
			t.ops[i].dst = intern(op.Dst)
		}
	}
	t.outcome = make([]uint8, len(t.ops))
	return t
}

// worker is one closed-loop client goroutine's record.
type worker struct {
	mu        sync.Mutex
	abandoned bool
	exhausted bool // ran out of trace before the window ended
	inflight  int  // index into the tenant's ops, -1 when idle

	samples   []opSample
	failed    map[string]int
	errSample []string // first error of each class
	attempted int
	traces    []sampledTrace
}

// opSample is one successful op: its completion number, when it
// finished (offset from the window start), how long it took, its class.
type opSample struct {
	seq      int64 // completion number, failures included
	end, lat time.Duration
	read     bool
}

// sampledTrace is one op's assembled cross-node span set.
type sampledTrace struct {
	spans   []telemetry.Span
	latency time.Duration
}

// passResult is everything one pass measured.
type passResult struct {
	attempted, completed int
	failedBy             map[string]int
	failed               int
	elapsed              time.Duration
	// chunks cut the measured op range (see measure).
	chunks      []chunk
	measuredOps int
	chunkCPU    []float64 // CPU µs per op of each measured-range chunk
	bucketRates []float64
	setupS      []float64
	correct     bool
	mismatches  []string
	errSample   []string
	ledger      map[string]metric
	traces      []sampledTrace
}

func generate(sp spec, seed int64, window time.Duration, smoke bool) []*tenant {
	n := int(window.Seconds()*float64(sp.opsPerSecond)) + 1
	if smoke {
		n = 400
	}
	ts := make([]*tenant, sp.tenants)
	for t := range ts {
		ts[t] = newTenant(sp.gen(seed, t, n, smoke), tenantRoot(t))
	}
	return ts
}

// traceRate is the span sampling rate of every tracer in a pass: 0
// records everything (the traced pass), -1 disables span recording.
func traceRate(traced bool) float64 {
	if traced {
		return 0
	}
	return -1
}

// clusterConfig is the cluster default, commit mode sync-fsync, with the
// spec's SyncWAL: off, the ack follows the WAL append; on, it follows
// the group-commit fsync.
func clusterConfig(sp spec, traced bool) server.ClusterConfig {
	return server.ClusterConfig{
		TraceSampleRate: traceRate(traced), CommitMode: "sync-fsync",
		KvOpts: kvstore.Options{SyncWAL: sp.syncWAL},
	}
}

// populate replays every tenant's setup ops through one batching SDK
// client with setupWorkers closed loops; an op waits for its parent
// directory's mkdir.
func populate(addrs []string, ts []*tenant) error {
	c, err := client.Dial(client.Config{Addrs: addrs, BatchWindow: 64, TraceSampleRate: -1, CallTimeout: 10 * time.Second})
	if err != nil {
		return err
	}
	defer c.Close()
	var all []trace.Op
	for _, t := range ts {
		all = append(all, t.setup...)
	}
	ready := make(map[string]chan struct{})
	for _, op := range all {
		if op.Type == costmodel.OpMkdir {
			ready[op.Path] = make(chan struct{})
		}
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < setupWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(all) {
					return
				}
				op := all[i]
				if ch, ok := ready[path.Dir(op.Path)]; ok {
					<-ch
				}
				err := execOp(c, op, i)
				if op.Type == costmodel.OpMkdir {
					close(ready[op.Path])
				}
				if err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("setup %s: %w", op, err) })
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// execOp issues one trace op through the SDK. idx is the op's index in
// its tenant's trace (it fixes setattr arguments).
func execOp(c *client.Client, op trace.Op, idx int) error {
	var err error
	switch op.Type {
	case costmodel.OpStat, costmodel.OpOpen:
		_, err = c.Stat(op.Path)
	case costmodel.OpLsdir:
		_, err = c.Readdir(op.Path)
	case costmodel.OpCreate:
		_, err = c.Create(op.Path)
	case costmodel.OpMkdir:
		_, err = c.Mkdir(op.Path)
	case costmodel.OpSetattr:
		size, mode := setattrArgs(idx)
		_, err = c.Setattr(op.Path, size, mode)
	case costmodel.OpRename:
		err = c.Rename(op.Path, op.Dst)
	case costmodel.OpUnlink, costmodel.OpRmdir:
		err = c.Remove(op.Path)
	default:
		err = fmt.Errorf("unsupported op %s", op.Type)
	}
	return err
}

// startCluster boots a one-MDS cluster and populates it, returning the set-up
// time in seconds.
func startCluster(cfg passConfig, dir string, ts []*tenant, bt *telemetry.Tracer) (*server.Cluster, float64, error) {
	// Collect the previous set-up's garbage off this one's clock.
	runtime.GC()
	start := time.Now()
	// Populate with SyncWAL off: the virtual disk's fsync latency would
	// otherwise decide the set-up time. A SyncWAL workload then reopens
	// the populated store with it on.
	ccfg := clusterConfig(cfg.spec, cfg.traced)
	popCfg := ccfg
	popCfg.KvOpts.SyncWAL = false
	cl, err := server.StartClusterConfig(1, dir, popCfg)
	if err != nil {
		return nil, 0, err
	}
	boot := time.Now()
	if err := populate(cl.Addrs, ts); err != nil {
		cl.Close()
		return nil, 0, err
	}
	populated := time.Now()
	if ccfg.KvOpts.SyncWAL {
		cl.Close()
		if cl, err = server.StartClusterConfig(1, dir, ccfg); err != nil {
			return nil, 0, err
		}
	}
	end := time.Now()
	benchSpan(bt, "bench.setup.boot", start, boot)
	benchSpan(bt, "bench.setup.populate", boot, populated)
	benchSpan(bt, "bench.setup.reopen", populated, end)
	return cl, end.Sub(start).Seconds(), nil
}

// benchSpan records one of the benchmark's own spans.
func benchSpan(bt *telemetry.Tracer, name string, start, end time.Time) {
	if bt == nil {
		return
	}
	bt.Record(telemetry.Span{
		TraceID: telemetry.NewTraceID(), SpanID: telemetry.NewSpanID(), Name: name, Node: "bench",
		StartUnixNano: start.UnixNano(), DurationNS: end.Sub(start).Nanoseconds(),
	})
}

// runPass runs one pass and checks its correctness.
func runPass(cfg passConfig, bt *telemetry.Tracer) (*passResult, error) {
	sp := cfg.spec
	res := &passResult{failedBy: map[string]int{}}
	ts := generate(sp, cfg.seed, cfg.window, cfg.smoke)

	// Set-up: boot and populate setupReps times (discarding all but the
	// last cluster), so setup_s is a median of several.
	var cl *server.Cluster
	var dir string
	for r := 0; r < cfg.setupReps; r++ {
		dir = filepath.Join(cfg.dataDir, fmt.Sprintf("setup%d", r))
		c, secs, err := startCluster(cfg, dir, ts, bt)
		if err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, secs)
		if r < cfg.setupReps-1 {
			c.Close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		cl = c
	}
	defer func() {
		cl.Close()
		os.RemoveAll(dir)
	}()

	root, err := client.Dial(client.Config{
		Addrs: cl.Addrs, BatchWindow: sp.batch, CallTimeout: opDeadline, TraceSampleRate: traceRate(cfg.traced),
	})
	if err != nil {
		return nil, err
	}
	defer root.Close() // closed early below, before the restarts; Close is idempotent
	nForks := sp.virtual
	if nForks == 0 {
		nForks = sp.workers
	}
	forks := make([]*client.Client, nForks)
	for i := range forks {
		forks[i] = root.Fork()
	}

	warm, quota := cfg.measuredRange()
	led := newLedgerProbe(cl, root, int64(warm), int64(warm+quota))
	led.start()
	var (
		completed atomic.Int64
		wg        sync.WaitGroup
	)
	workers := make([]*worker, sp.workers)
	winStart := time.Now()
	// The window lasts --seconds, stretched until the measured range is
	// complete (at most maxStretch times as long), so a slow run still
	// measures the whole range; a run that does not reach its end even
	// then fails.
	deadline, hardDeadline := winStart.Add(cfg.window), winStart.Add(maxStretch*cfg.window)
	over := func(now time.Time) bool {
		return now.After(hardDeadline) || (now.After(deadline) && completed.Load() >= int64(warm+quota))
	}
	for w := range workers {
		wk := &worker{inflight: -1, failed: map[string]int{}}
		workers[w] = wk
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runWorker(cfg, ts, forks, w, wk, winStart, over, &completed, led)
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Until(hardDeadline) + stallGrace):
		// Abandon every op still blocked: it is a deadline failure and
		// its paths are ambiguous; the goroutine is left to finish.
		for w, wk := range workers {
			wk.mu.Lock()
			wk.abandoned = true
			if wk.inflight >= 0 {
				t := ts[w%sp.tenants]
				t.outcome[wk.inflight] = 2
				wk.failed["deadline"]++
				wk.attempted++
			}
			wk.mu.Unlock()
		}
	}
	// Workers stop issuing when the window is over; the last ops finish
	// a little later and are counted over the real elapsed time.
	res.elapsed = lastEnd(workers, cfg.window)
	led.stop()

	var all []opSample
	for _, wk := range workers {
		wk.mu.Lock()
		if wk.exhausted && !cfg.smoke {
			wk.mu.Unlock()
			return nil, fmt.Errorf("a client ran out of trace before the window ended; raise opsPerSecond of %s", sp.name)
		}
		res.attempted += wk.attempted
		all = append(all, wk.samples...)
		for k, v := range wk.failed {
			res.failedBy[k] += v
			res.failed += v
		}
		res.traces = append(res.traces, wk.traces...)
		res.errSample = append(res.errSample, wk.errSample...)
		wk.mu.Unlock()
	}
	res.completed = len(all)
	res.measure(all, warm, quota)
	res.bucketRates = bucketRates(all, res.elapsed)
	if res.ledger, err = led.metrics(res); err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	root.Close()

	// Correctness: the model of every tenant against a fresh walk, then
	// again after every MDS restarts from its own disk state.
	models := make([]*model, len(ts))
	for i, t := range ts {
		models[i] = buildModel(t)
	}
	res.correct = true
	check := func(stage string) error {
		bad, err := verify(cl.Addrs, ts, models)
		if err != nil {
			return fmt.Errorf("%s check: %w", stage, err)
		}
		for _, b := range bad {
			res.mismatches = append(res.mismatches, stage+": "+b)
		}
		if len(bad) > 0 {
			res.correct = false
		}
		return nil
	}
	if err := check("live"); err != nil {
		return nil, err
	}
	if !cfg.smoke {
		quiesce(cl)
		failures, err := drill(cl, models, cfg.seed, bt, res.ledger)
		if err != nil {
			return nil, fmt.Errorf("store drill: %w", err)
		}
		if failures > 0 {
			res.correct = false
			res.mismatches = append(res.mismatches, fmt.Sprintf("store drill: %d sampled keys not found or unreadable", failures))
		}
	}
	for i := range cl.Services {
		if err := cl.StopMDS(i); err != nil {
			return nil, err
		}
	}
	for i := range cl.Services {
		if err := cl.RestartMDS(i); err != nil {
			return nil, err
		}
	}
	if err := check("restart"); err != nil {
		return nil, err
	}
	return res, nil
}

// runWorker is one closed-loop client: it issues its tenant's ops in
// order, each after the previous reply, until the window is over.
func runWorker(cfg passConfig, ts []*tenant, forks []*client.Client, w int, wk *worker, winStart time.Time, over func(time.Time) bool, completed *atomic.Int64, led *ledgerProbe) {
	sp := cfg.spec
	t := ts[w%sp.tenants]
	stride := sp.workers / sp.tenants // workers sharing one tenant
	rnd := rand.New(rand.NewSource(cfg.seed*31 + int64(w)))
	defer func() {
		wk.mu.Lock()
		wk.exhausted = !wk.abandoned && !over(time.Now())
		wk.mu.Unlock()
	}()
	for j, idx := 0, w/sp.tenants; idx < len(t.ops); j, idx = j+1, idx+stride {
		now := time.Now()
		if over(now) {
			return
		}
		c := forks[(w+sp.workers*j)%len(forks)]
		op := t.op(idx)
		wk.mu.Lock()
		wk.inflight = idx
		wk.mu.Unlock()
		err := execOp(c, op, idx)
		end := time.Now()
		lat := end.Sub(now)
		var tr *sampledTrace
		if cfg.traced && rnd.Intn(sp.traceEvery) == 0 {
			tr = gatherOp(c, op, now, end)
		}
		wk.mu.Lock()
		if wk.abandoned {
			wk.mu.Unlock()
			return
		}
		wk.inflight = -1
		wk.attempted++
		switch {
		case err != nil:
			t.outcome[idx] = 2
			class := errClass(err)
			if wk.failed[class] == 0 {
				wk.errSample = append(wk.errSample, fmt.Sprintf("%s: %s: %v", class, op, err))
			}
			wk.failed[class]++
		case lat > opDeadline:
			t.outcome[idx] = 1 // applied, but late
			wk.failed["deadline"]++
		default:
			t.outcome[idx] = 1
		}
		seq := completed.Add(1)
		if err == nil {
			wk.samples = append(wk.samples, opSample{seq: seq, end: end.Sub(winStart), lat: lat, read: !op.Type.IsWrite()})
		}
		if tr != nil {
			tr.latency = lat
			wk.traces = append(wk.traces, *tr)
		}
		wk.mu.Unlock()
		led.completed(seq)
	}
}

// gatherOp pulls the op's assembled cross-node trace right after it
// finished (before the node span rings wrap) and adds the benchmark's
// own span around the SDK call as its root.
func gatherOp(c *client.Client, op trace.Op, start, end time.Time) *sampledTrace {
	id := c.LastTraceID()
	spans, err := c.GatherTrace(id)
	if err != nil || len(spans) == 0 {
		return nil
	}
	benchID := telemetry.NewSpanID()
	for i := range spans {
		if spans[i].ParentID == 0 {
			spans[i].ParentID = benchID
		}
	}
	spans = append(spans, telemetry.Span{
		TraceID: id, SpanID: benchID, Name: "bench.op." + op.Type.String(), Node: "bench",
		StartUnixNano: start.UnixNano(), DurationNS: end.Sub(start).Nanoseconds(),
	})
	return &sampledTrace{spans: spans}
}

func lastEnd(workers []*worker, floor time.Duration) time.Duration {
	last := floor
	for _, wk := range workers {
		wk.mu.Lock()
		if n := len(wk.samples); n > 0 && wk.samples[n-1].end > last {
			last = wk.samples[n-1].end
		}
		wk.mu.Unlock()
	}
	return last
}

// measure fixes the measured op range: completions numbered
// (warm, warm+quota], the same amount of work on every run however fast
// it goes. The range is cut into measureChunks equal runs of
// completions; throughput and each latency percentile are the median
// over the chunks, so one stall or burst of host noise moves one chunk,
// not the result. A run that did not reach the range's end fails (see
// ledgerProbe.metrics).
func (r *passResult) measure(all []opSample, warm, quota int) {
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	lo := sort.Search(len(all), func(i int) bool { return all[i].seq > int64(warm) })
	hi := sort.Search(len(all), func(i int) bool { return all[i].seq > int64(warm+quota) })
	r.measuredOps = hi - lo
	r.chunks = nil
	per := r.measuredOps / measureChunks
	for k := 0; k < measureChunks && per > 0; k++ {
		from := lo + k*per
		r.chunks = append(r.chunks, newChunk(all, from, from+per))
	}
}

// chunk is one run of consecutive completions of the measured range.
type chunk struct {
	rate      float64
	all, read []time.Duration // sorted latencies
	write     []time.Duration
}

func newChunk(all []opSample, lo, hi int) chunk {
	var c chunk
	from := time.Duration(0)
	if lo > 0 {
		from = all[lo-1].end
	}
	c.rate = ratio(float64(hi-lo), (all[hi-1].end - from).Seconds())
	for _, s := range all[lo:hi] {
		c.all = append(c.all, s.lat)
		if s.read {
			c.read = append(c.read, s.lat)
		} else {
			c.write = append(c.write, s.lat)
		}
	}
	for _, l := range [][]time.Duration{c.all, c.read, c.write} {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	return c
}

// chunkMedian is the median over chunks of f, skipping chunks f
// reports as empty.
func chunkMedian(chunks []chunk, f func(chunk) (float64, bool)) (float64, bool) {
	var xs []float64
	for _, c := range chunks {
		if v, ok := f(c); ok {
			xs = append(xs, v)
		}
	}
	return median(xs), len(xs) > 0
}

// bucketRates splits the window into one-second buckets and returns the
// completions in each full bucket.
func bucketRates(all []opSample, elapsed time.Duration) []float64 {
	n := int(elapsed / time.Second)
	if n < 1 {
		return nil
	}
	counts := make([]float64, n)
	for _, s := range all {
		if b := int(s.end / time.Second); b < n {
			counts[b]++
		}
	}
	return counts
}

func buildModel(t *tenant) *model {
	m := newModel()
	for i, op := range t.setup {
		m.apply(op, i, true, true)
	}
	for i, o := range t.outcome {
		switch o {
		case 1:
			m.apply(t.op(i), i, true, false)
		case 2:
			m.apply(t.op(i), i, false, false)
		}
	}
	return m
}

// verify walks every tenant root with a fresh cache-less client and
// compares it with the tenant's model.
func verify(addrs []string, ts []*tenant, models []*model) ([]string, error) {
	c, err := client.Dial(client.Config{Addrs: addrs, Cache: "off", TraceSampleRate: -1, CallTimeout: 10 * time.Second})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	var bad []string
	for i, t := range ts {
		actual, err := walk(c, t.root)
		if err != nil {
			return nil, err
		}
		bad = append(bad, models[i].compare(actual, 10)...)
	}
	return bad, nil
}

// quiesce waits until no shard's flush or compaction count moves for
// 200ms (at most 5s), so the store drill sees a settled LSM.
func quiesce(cl *server.Cluster) {
	sig := func() int64 {
		var s int64
		for _, svc := range cl.Services {
			st := svc.StoreStats()
			s += st.Flushes*1000003 + st.Compactions
		}
		return s
	}
	prev := sig()
	stable := time.Now()
	for limit := time.Now().Add(5 * time.Second); time.Now().Before(limit); {
		time.Sleep(50 * time.Millisecond)
		if cur := sig(); cur != prev {
			prev, stable = cur, time.Now()
		} else if time.Since(stable) >= 200*time.Millisecond {
			return
		}
	}
}
