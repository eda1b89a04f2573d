package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"origami/internal/client"
	"origami/internal/kvstore"
	"origami/internal/server"
	"origami/internal/telemetry"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metaMethods are the RPC methods the SDK issues for namespace ops (map
// refreshes included); observability pulls are excluded.
var metaMethods = map[string]bool{
	"lookup": true, "getattr": true, "create": true, "remove": true, "rename": true,
	"readdir": true, "setattr": true, "lookup_path": true, "resolve_path": true,
	"batch": true, "getmap": true,
}

// mdsOps are the handlers reported as mds.<op>_us.
var mdsOps = []string{"resolve_path", "lookup_path", "lookup", "getattr", "readdir", "batch", "create", "setattr", "rename", "remove"}

// ledgerProbe snapshots every layer's exported counters at the start
// and end of the timed window.
type ledgerProbe struct {
	cl   *server.Cluster
	root *client.Client

	cliBefore, cliAfter   telemetry.Snapshot
	svcBefore, svcAfter   []telemetry.Snapshot
	kvBefore, kvAfter     []kvstore.Stats
	statsBefore, statsEnd client.Stats
	rtBefore, rtAfter     runtimeSample

	// walBytes accumulates WAL growth sampled by a poller (the WAL
	// resets at each flush, so only its growth between polls counts).
	stopPoll chan struct{}
	pollWG   sync.WaitGroup
	walMu    sync.Mutex
	walBytes int64
	rssMB    []float64 // resident set, sampled every rssEvery polls
	rssIn    []bool    // whether each sample fell in the measured range

	// The measured range's resource snapshots, taken by the worker whose
	// completion is number lo+k*step: marks[0] opens the range,
	// marks[measureChunks] closes it.
	lo, hi, step int64
	inRange      atomic.Bool
	rangeMu      sync.Mutex
	marks        []*resources
}

// resources is the process's CPU, runtime counters and resident set
// after n completions.
type resources struct {
	n     int64
	cpu   time.Duration
	rt    runtimeSample
	rssMB float64
}

// rssEvery is how many WAL polls (20ms apart) pass between RSS samples.
const rssEvery = 5

func newLedgerProbe(cl *server.Cluster, root *client.Client, lo, hi int64) *ledgerProbe {
	return &ledgerProbe{cl: cl, root: root, lo: lo, hi: hi,
		step: max((hi-lo)/measureChunks, 1), marks: make([]*resources, measureChunks+1)}
}

// completed is called with each op's completion number.
func (l *ledgerProbe) completed(n int64) {
	k := (n - l.lo) / l.step
	if n < l.lo || n > l.hi || (n-l.lo)%l.step != 0 || k > measureChunks {
		return
	}
	r := &resources{n: n, cpu: cpuTime(), rt: readRuntime(), rssMB: rssMB()}
	l.rangeMu.Lock()
	defer l.rangeMu.Unlock()
	l.marks[k] = r
	l.inRange.Store(k < measureChunks)
}

func (l *ledgerProbe) snap() (cli telemetry.Snapshot, svc []telemetry.Snapshot, kv []kvstore.Stats) {
	cli = l.root.Registry().Snapshot()
	for _, s := range l.cl.Services {
		svc = append(svc, s.Registry().Snapshot())
		kv = append(kv, s.StoreStats())
	}
	return
}

func (l *ledgerProbe) start() {
	l.cliBefore, l.svcBefore, l.kvBefore = l.snap()
	l.statsBefore = l.root.Stats()
	l.rtBefore = readRuntime()
	l.stopPoll = make(chan struct{})
	l.pollWG.Add(1)
	go l.pollWAL()
}

func (l *ledgerProbe) pollWAL() {
	defer l.pollWG.Done()
	prev := make([]int64, len(l.cl.Services))
	for i, s := range l.kvBefore {
		prev[i] = s.WALBytes
	}
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for n := 0; ; n++ {
		select {
		case <-l.stopPoll:
			return
		case <-t.C:
		}
		var grown int64
		for i, svc := range l.cl.Services {
			cur := svc.StoreStats().WALBytes
			if cur >= prev[i] {
				grown += cur - prev[i]
			} else {
				grown += cur // reset by a flush: the new WAL's bytes
			}
			prev[i] = cur
		}
		l.walMu.Lock()
		l.walBytes += grown
		if n%rssEvery == 0 {
			l.rssMB = append(l.rssMB, rssMB())
			l.rssIn = append(l.rssIn, l.inRange.Load())
		}
		l.walMu.Unlock()
	}
}

func (l *ledgerProbe) stop() {
	l.rtAfter = readRuntime()
	l.statsEnd = l.root.Stats()
	close(l.stopPoll)
	l.pollWG.Wait()
	l.cliAfter, l.svcAfter, l.kvAfter = l.snap()
}

// metrics derives the window's per-layer ledger and the resource
// end-to-end metrics from the two snapshots. It fails when the run did
// not reach the end of the measured range.
func (l *ledgerProbe) metrics(res *passResult) (map[string]metric, error) {
	m := map[string]metric{}
	ops := float64(res.completed)
	perOp := func(v float64) float64 { return ratio(v, ops) }
	us := func(ns float64) float64 { return ns / 1000 }

	// Process-wide resources (servers share the process) over the
	// measured range: the same work on every run.
	l.rangeMu.Lock()
	marks := append([]*resources(nil), l.marks...)
	l.rangeMu.Unlock()
	for k, r := range marks {
		if r == nil {
			return nil, fmt.Errorf("the run did not reach completion %d of its measured range (%d, %d]", l.lo+int64(k)*l.step, l.lo, l.hi)
		}
	}
	from, to := marks[0], marks[measureChunks]
	res.chunkCPU = nil
	for k := 0; k < measureChunks; k++ {
		a, b := marks[k], marks[k+1]
		res.chunkCPU = append(res.chunkCPU, us(ratio(float64(b.cpu-a.cpu), float64(b.n-a.n))))
	}
	rangeOps := float64(to.n - from.n)
	m["cpu_us_per_op"] = metric{us(ratio(float64(to.cpu-from.cpu), rangeOps)), "us"}
	m["allocs_per_op"] = metric{ratio(float64(to.rt.allocObjects-from.rt.allocObjects), rangeOps), "count"}
	m["proc.alloc_bytes_per_op"] = metric{perOp(float64(l.rtAfter.allocBytes - l.rtBefore.allocBytes)), "B"}
	m["proc.gc_cpu_frac"] = metric{ratio(l.rtAfter.gcCPU-l.rtBefore.gcCPU, l.rtAfter.totalCPU-l.rtBefore.totalCPU), "frac"}
	m["proc.sched_wait_p99_us"] = metric{us(float64(schedWaitP99(l.rtBefore.schedLat, l.rtAfter.schedLat))), "us"}

	// Client SDK.
	cli := diffSnapshots(l.cliBefore, l.cliAfter)
	rpcCalls := cli.counterSum("rpc.client.", ".calls", metaMethods)
	m["client.rpc_per_op"] = metric{perOp(float64(rpcCalls)), "rpc/op"}
	m["client.ops_per_frame"] = metric{ratio(float64(l.statsEnd.BatchedOps-l.statsBefore.BatchedOps),
		float64(l.statsEnd.BatchFrames-l.statsBefore.BatchFrames)), "op/frame"}
	_, opNS := cli.hist("client.op.", ".latency_ns", nil)
	cliN, cliNS := cli.hist("rpc.client.", ".latency_ns", metaMethods)
	m["client.self_us"] = metric{us(perOp(float64(opNS - cliNS))), "us"}
	m["client.retries_per_op"] = metric{perOp(float64(cli.counters["client.op.retries"] + cli.counters["client.retry.attempts"])), "count/op"}

	// Lease cache.
	hits, misses := cli.counters["client.cache.hits"], cli.counters["client.cache.misses"]
	m["lease.hit_ratio"] = metric{ratio(float64(hits), float64(hits+misses)), "frac"}
	m["lease.invalidations_per_op"] = metric{perOp(float64(cli.counters["client.cache.invalidations"])), "count/op"}

	// Server side, summed over shards.
	srv := newSnapDelta()
	for i := range l.svcAfter {
		srv.add(diffSnapshots(l.svcBefore[i], l.svcAfter[i]))
	}
	m["lease.grants_per_op"] = metric{perOp(float64(srv.counters["mds.lease.granted"])), "count/op"}
	srvN, srvNS := srv.hist("rpc.server.", ".latency_ns", metaMethods)
	mdsN, mdsNS := srv.hist("mds.op.", ".latency_ns", metaMethods)
	m["rpc.wire_us"] = metric{us(ratio(float64(cliNS), float64(cliN)) - ratio(float64(srvNS), float64(srvN))), "us"}
	m["rpc.dispatch_us"] = metric{us(ratio(float64(srvNS), float64(srvN)) - ratio(float64(mdsNS), float64(mdsN))), "us"}
	m["rpc.calls_per_op"] = metric{perOp(float64(srv.counterSum("rpc.server.", ".requests", nil))), "rpc/op"}
	for _, op := range mdsOps {
		m["mds."+op+"_us"] = metric{us(srv.meanHist("mds.op." + op + ".latency_ns")), "us"}
	}

	// Store and commit pipeline.
	var gets, writes, syncs, batches, flushes, compactions, flushed, compacted, tables int64
	for i := range l.kvAfter {
		a, b := l.kvAfter[i], l.kvBefore[i]
		gets += a.Gets - b.Gets
		writes += a.Puts + a.Deletes - b.Puts - b.Deletes
		syncs += a.WALSyncs - b.WALSyncs
		batches += a.Batches - b.Batches
		flushes += a.Flushes - b.Flushes
		compactions += a.Compactions - b.Compactions
		flushed += a.BytesFlushed - b.BytesFlushed
		compacted += a.BytesCompacted - b.BytesCompacted
		for _, n := range a.TablesPerLevel {
			tables += int64(n)
		}
	}
	m["mds.kv_gets_per_op"] = metric{perOp(float64(gets)), "count/op"}
	m["mds.kv_writes_per_op"] = metric{perOp(float64(writes)), "count/op"}
	m["commit.fsyncs_per_op"] = metric{perOp(float64(syncs)), "count/op"}
	m["commit.acks_per_op"] = metric{perOp(float64(srv.counters["commit.ops.acked"])), "count/op"}
	m["commit.batch_records_per_op"] = metric{perOp(float64(batches)), "count/op"}
	m["kvstore.flushes"] = metric{float64(flushes), "count"}
	m["kvstore.compactions"] = metric{float64(compactions), "count"}
	m["kvstore.compact_per_flush_byte"] = metric{ratio(float64(compacted), float64(flushed)), "B/B"}
	m["kvstore.tables"] = metric{float64(tables), "count"}
	l.walMu.Lock()
	wal := l.walBytes
	// The marks sample the resident set too, so a range shorter than
	// the poll interval still has samples.
	var inRange []float64
	for i, in := range l.rssIn {
		if in {
			inRange = append(inRange, l.rssMB[i])
		}
	}
	for _, r := range marks {
		inRange = append(inRange, r.rssMB)
	}
	m["rss_mb"] = metric{median(inRange), "MiB"}
	l.walMu.Unlock()
	m["disk_bytes_per_op"] = metric{perOp(float64(wal + flushed + compacted)), "B/op"}

	return m, nil
}
