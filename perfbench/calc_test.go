package main

import (
	"testing"
	"time"

	"origami/internal/telemetry"
)

func durs(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, m := range ms {
		out[i] = time.Duration(m) * time.Millisecond
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	ten := durs(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	cases := []struct {
		samples []time.Duration
		p       float64
		want    time.Duration
	}{
		{nil, 50, 0},
		{durs(7), 50, 7 * time.Millisecond},
		{durs(7), 99, 7 * time.Millisecond},
		{ten, 50, 5 * time.Millisecond},  // rank ceil(5) = 5
		{ten, 90, 9 * time.Millisecond},  // rank 9
		{ten, 91, 10 * time.Millisecond}, // rank ceil(9.1) = 10
		{ten, 99, 10 * time.Millisecond},
		{ten, 100, 10 * time.Millisecond},
		{ten, 1, 1 * time.Millisecond},
		{durs(1, 2), 50, 1 * time.Millisecond},
	}
	for _, c := range cases {
		if got := percentile(c.samples, c.p); got != c.want {
			t.Errorf("percentile(n=%d, p%v) = %v, want %v", len(c.samples), c.p, got, c.want)
		}
	}
}

func TestMeasureFixedRange(t *testing.T) {
	var all []opSample
	for i := 1; i <= 30; i++ {
		all = append(all, opSample{seq: int64(i), end: time.Duration(i) * time.Second, lat: time.Duration(i) * time.Millisecond, read: i%2 == 0})
	}
	var r passResult
	r.measure(all, 5, 20) // completions 6..25 in 5 chunks of 4
	if r.measuredOps != 20 || len(r.chunks) != measureChunks {
		t.Fatalf("measured %d ops in %d chunks", r.measuredOps, len(r.chunks))
	}
	c := r.chunks[0] // completions 6..9, from t=5s to t=9s
	if c.rate != 1 || len(c.all) != 4 || len(c.read) != 2 || len(c.write) != 2 || c.read[0] != 6*time.Millisecond {
		t.Errorf("first chunk %+v", c)
	}
	p50, _ := chunkMedian(r.chunks, func(c chunk) (float64, bool) {
		return float64(percentile(c.all, 50) / time.Millisecond), true
	})
	if p50 != 15 { // chunk p50s are 7, 11, 15, 19, 23
		t.Errorf("median chunk p50 %v, want 15", p50)
	}
	if _, ok := chunkMedian(r.chunks, func(c chunk) (float64, bool) { return 0, false }); ok {
		t.Error("chunkMedian over no values reported ok")
	}
	// A failed op (no sample) leaves a gap in the completion numbers;
	// the range is still fixed by them.
	gappy := append(append([]opSample(nil), all[:6]...), all[7:]...) // no seq 7
	var g passResult
	g.measure(gappy, 5, 20)
	if g.measuredOps != 19 {
		t.Errorf("gappy run measured %d ops, want 19", g.measuredOps)
	}
}

// TestLedgerRefusesShortRange checks that a run which did not reach the
// end of its measured range gets no resource metrics.
func TestLedgerRefusesShortRange(t *testing.T) {
	l := newLedgerProbe(nil, nil, 5, 25) // marks at completions 5, 9, ..., 25
	for n := int64(1); n <= 24; n++ {
		l.completed(n)
	}
	if _, err := l.metrics(&passResult{}); err == nil {
		t.Fatal("metrics of a range short of its end reported no error")
	}
}

func TestRatioZeroBase(t *testing.T) {
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %v, want 0", got)
	}
	if got := ratio(0, 0); got != 0 {
		t.Errorf("ratio(0, 0) = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestDiffSnapshots(t *testing.T) {
	before, after := telemetry.NewRegistry(), telemetry.NewRegistry()
	before.Counter("rpc.client.create.calls").Add(10)
	after.Counter("rpc.client.create.calls").Add(25)
	after.Counter("rpc.client.stats.calls").Add(3) // registered in between
	before.Histogram("mds.op.create.latency_ns").Record(100)
	for _, v := range []int64{100, 300, 500} {
		after.Histogram("mds.op.create.latency_ns").Record(v)
	}
	after.Histogram("mds.op.readdir.latency_ns").Record(1000)
	d := diffSnapshots(before.Snapshot(), after.Snapshot())
	if d.counters["rpc.client.create.calls"] != 15 || d.counters["rpc.client.stats.calls"] != 3 {
		t.Errorf("counters %v", d.counters)
	}
	if n, sum := d.hist("mds.op.", ".latency_ns", nil); n != 3 || sum != 1800 {
		t.Errorf("all mds ops: n=%d sum=%d, want 3 and 1800", n, sum)
	}
	if n, sum := d.hist("mds.op.", ".latency_ns", map[string]bool{"create": true}); n != 2 || sum != 800 {
		t.Errorf("create: n=%d sum=%d, want 2 and 800", n, sum)
	}
	if got := d.meanHist("mds.op.create.latency_ns"); got != 400 {
		t.Errorf("mean create %v, want 400", got)
	}
	if got := d.meanHist("mds.op.absent.latency_ns"); got != 0 {
		t.Errorf("absent histogram mean %v, want 0", got)
	}
	if got := d.counterSum("rpc.client.", ".calls", map[string]bool{"create": true}); got != 15 {
		t.Errorf("counterSum %d", got)
	}
	total := newSnapDelta()
	total.add(d)
	total.add(d)
	if total.counters["rpc.client.create.calls"] != 30 || total.histN["mds.op.create.latency_ns"] != 4 {
		t.Errorf("summed delta %v %v", total.counters, total.histN)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"leaf", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		{"clipped to parent", []interval{{-50, 10}, {90, 200}}, 80},
		{"covers all", []interval{{0, 100}, {40, 60}}, 0},
		{"outside", []interval{{200, 300}}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLayerSelfAttributesChain(t *testing.T) {
	// bench 0..100 > client 5..95 > rpc 20..80 > mds 25..75 > two
	// overlapping kvstore spans 30..60 and 50..70.
	spans := []telemetry.Span{
		{TraceID: 1, SpanID: 1, Name: "bench.op.create", StartUnixNano: 0, DurationNS: 100},
		{TraceID: 1, SpanID: 2, ParentID: 1, Name: "client.op.create", StartUnixNano: 5, DurationNS: 90},
		{TraceID: 1, SpanID: 3, ParentID: 2, Name: "rpc.server.create", StartUnixNano: 20, DurationNS: 60},
		{TraceID: 1, SpanID: 4, ParentID: 3, Name: "mds.op.create", StartUnixNano: 25, DurationNS: 50},
		{TraceID: 1, SpanID: 5, ParentID: 4, Name: "kvstore.commit", StartUnixNano: 30, DurationNS: 30},
		{TraceID: 1, SpanID: 6, ParentID: 4, Name: "kvstore.commit", StartUnixNano: 50, DurationNS: 20},
	}
	self, commitNS, commits := layerSelf(spans)
	want := map[string]int64{"bench": 10, "client": 30, "rpc": 10, "mds": 10, "kvstore": 50}
	var sum int64
	for k, v := range want {
		if self[k] != v {
			t.Errorf("%s self = %d, want %d", k, self[k], v)
		}
		sum += self[k]
	}
	// The mds span's self time subtracts the union of its children once
	// (10 = 50 - 40), while each overlapping kvstore leaf keeps its own
	// duration, so the layers sum past the root by the 10ns overlap.
	if sum != 110 {
		t.Errorf("sum %d", sum)
	}
	if commitNS != 50 || commits != 2 {
		t.Errorf("commit %d ns over %d spans", commitNS, commits)
	}
}
