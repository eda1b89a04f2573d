// Command perfbench is OrigamiFS's end-to-end benchmark. It replays the
// paper's three metadata traces (internal/workload) against in-process
// clusters through the public SDK, checks the final namespace against a
// sequential model (live and after every MDS restarts), and prints every
// end-to-end and per-layer metric with its unit. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload write-wi --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 reports the per-layer ledger: an untraced pass gives the
// counters, a second pass with every span recorded gives per-layer self
// times and the tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"origami/internal/telemetry"
)

// endToEnd are the user-visible metrics of a --trace 0 run, in
// BENCHMARK.json order.
var endToEnd = []string{"cpu_us_per_op", "allocs_per_op", "rss_mb", "setup_s"}

// perLayer are the ledger metrics of a --trace 1 run, in BENCHMARK.json
// order.
var perLayer = []string{
	"throughput_ops", "op_p50_us", "op_p99_us",
	"client.rpc_per_op", "client.ops_per_frame", "client.self_us", "client.retries_per_op",
	"lease.hit_ratio", "lease.invalidations_per_op", "lease.grants_per_op",
	"rpc.wire_us", "rpc.dispatch_us", "rpc.calls_per_op",
	"mds.resolve_path_us", "mds.lookup_path_us", "mds.getattr_us", "mds.readdir_us", "mds.batch_us",
	"mds.create_us", "mds.setattr_us", "mds.rename_us", "mds.kv_gets_per_op", "mds.kv_writes_per_op",
	"commit.fsyncs_per_op", "commit.acks_per_op", "commit.batch_records_per_op", "commit.ack_wait_us",
	"kvstore.flushes", "kvstore.compactions", "kvstore.compact_per_flush_byte", "kvstore.tables",
	"kvstore.lookup_us", "kvstore.gets_per_lookup", "kvstore.preads_per_lookup",
	"kvstore.recent_lookup_us", "kvstore.recent_preads_per_lookup", "kvstore.getattr_us", "kvstore.readdir_us",
	"proc.gc_cpu_frac", "proc.alloc_bytes_per_op", "proc.sched_wait_p99_us",
	"trace.client_self_us", "trace.rpc_self_us", "trace.mds_self_us", "trace.kvstore_self_us",
	"trace.unattributed_us", "telemetry.trace_overhead_frac",
	"read_p50_us", "read_p99_us", "write_p50_us", "write_p99_us", "failed_frac", "disk_bytes_per_op", "rss_peak_mb",
}

// options are one invocation's arguments.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dataDir  string
	smoke    bool
}

// report is one invocation's outcome.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	all        map[string]metric // every metric measured, for the text report
	failedBy   map[string]int
	mismatches []string
	errSample  []string
	host       hostInfo
	samples    map[string]int
	buckets    []float64
	chunkLine  []string
	chunkCPU   []float64
	setups     []float64
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "write-wi", "workload: write-wi, read-ro or rw-compile")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer ledger")
	flag.StringVar(&o.dataDir, "data", filepath.Join(".bench_build", "data"), "scratch directory for the shard stores")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.seconds < 1 || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		os.Exit(2)
	}
	abs, err := filepath.Abs(filepath.Join(o.dataDir, fmt.Sprint(os.Getpid())))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	o.dataDir = abs
	rep, err := run(o)
	os.RemoveAll(o.dataDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	printReport(o, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// run executes one invocation: a --trace 0 run is one untraced pass; a
// --trace 1 run is an untraced pass (ledger counters) followed by a
// traced pass (span self times, tracing overhead).
func run(o options) (*report, error) {
	sp, err := specByName(o.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.dataDir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{
		Correct: true, all: map[string]metric{}, failedBy: map[string]int{},
		host: collectHost(o.dataDir, o.seed), samples: map[string]int{},
	}
	cfg := passConfig{
		spec: sp, seed: o.seed, window: time.Duration(o.seconds) * time.Second,
		setupReps: sp.setupReps, dataDir: o.dataDir, smoke: o.smoke,
	}
	if o.trace {
		cfg.setupReps = 1 // setup_s is an end-to-end metric
	}
	plain, err := runPass(cfg, nil)
	if err != nil {
		return nil, err
	}
	rep.fold(plain)
	for k, v := range endToEndMetrics(plain) {
		rep.all[k] = v
	}
	for k, v := range plain.ledger {
		rep.all[k] = v
	}
	for _, c := range plain.chunks {
		rep.samples["read"] += len(c.read)
		rep.samples["write"] += len(c.write)
	}
	rep.buckets = plain.bucketRates
	rep.chunkCPU = plain.chunkCPU
	rep.setups = plain.setupS
	for _, c := range plain.chunks {
		rep.chunkLine = append(rep.chunkLine, fmt.Sprintf("%.0f/%.0f", c.rate, float64(percentile(c.all, 50).Microseconds())))
	}
	if o.trace {
		bt := telemetry.NewTracer("bench", telemetry.TracerConfig{Capacity: 1 << 14})
		cfg.traced = true
		traced, err := runPass(cfg, bt)
		if err != nil {
			return nil, err
		}
		rep.fold(traced)
		for k, v := range traceReport(traced.traces) {
			rep.all[k] = v
		}
		rep.all["telemetry.trace_overhead_frac"] = metric{
			ratio(traced.ledger["cpu_us_per_op"].Value, plain.ledger["cpu_us_per_op"].Value) - 1, "frac"}
		rep.all["bench.traced_cpu_us_per_op"] = traced.ledger["cpu_us_per_op"]
		for name, v := range benchSpanMeans(bt) {
			rep.all[name] = v
		}
	}
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	rep.Metrics = map[string]metric{}
	for _, n := range names {
		v, ok := rep.all[n]
		if !ok {
			v = metric{0, unitOf(n)}
		}
		rep.Metrics[n] = v
	}
	return rep, nil
}

// fold adds one pass's counts and verdict to the report.
func (r *report) fold(p *passResult) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	r.Correct = r.Correct && p.correct
	for k, v := range p.failedBy {
		r.failedBy[k] += v
	}
	r.mismatches = append(r.mismatches, p.mismatches...)
	r.errSample = append(r.errSample, p.errSample...)
}

// endToEndMetrics are the user-visible numbers of one untraced pass.
// Timings are medians over the measured range's chunks; a latency class
// with no samples is left out.
func endToEndMetrics(p *passResult) map[string]metric {
	m := map[string]metric{
		"throughput_window_ops": {ratio(float64(p.completed), p.elapsed.Seconds()), "1/s"},
		"measured_ops":          {float64(p.measuredOps), "count"},
		"failed_frac":           {ratio(float64(p.failed), float64(p.attempted)), "frac"},
		"rss_peak_mb":           {peakRSSMB(), "MiB"},
		"setup_s":               {median(p.setupS), "s"},
		"cpu_us_per_op":         p.ledger["cpu_us_per_op"],
		"allocs_per_op":         p.ledger["allocs_per_op"],
		"rss_mb":                p.ledger["rss_mb"],
		"disk_bytes_per_op":     p.ledger["disk_bytes_per_op"],
	}
	if v, ok := chunkMedian(p.chunks, func(c chunk) (float64, bool) { return c.rate, true }); ok {
		m["throughput_ops"] = metric{v, "1/s"}
	}
	classes := []struct {
		name string
		lat  func(chunk) []time.Duration
	}{
		{"op", func(c chunk) []time.Duration { return c.all }},
		{"read", func(c chunk) []time.Duration { return c.read }},
		{"write", func(c chunk) []time.Duration { return c.write }},
	}
	for _, cl := range classes {
		for _, q := range []float64{50, 99} {
			v, ok := chunkMedian(p.chunks, func(c chunk) (float64, bool) {
				l := cl.lat(c)
				return float64(percentile(l, q).Nanoseconds()) / 1000, len(l) > 0
			})
			if ok {
				m[fmt.Sprintf("%s_p%.0f_us", cl.name, q)] = metric{v, "us"}
			}
		}
	}
	return m
}

// benchSpanMeans summarises the benchmark's own spans (set-up phases,
// drill phases) as mean milliseconds per span name.
func benchSpanMeans(bt *telemetry.Tracer) map[string]metric {
	sum, n := map[string]int64{}, map[string]int{}
	for _, s := range bt.RecentSpans(0) {
		sum[s.Name] += s.DurationNS
		n[s.Name]++
	}
	out := map[string]metric{}
	for name := range sum {
		out["span."+strings.TrimPrefix(name, "bench.")+"_ms"] = metric{float64(sum[name]) / float64(n[name]) / 1e6, "ms"}
	}
	return out
}

// unitOf gives the unit of a metric that a workload did not exercise.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_ratio"):
		return "frac"
	case strings.HasSuffix(name, "_per_op"):
		return "count/op"
	}
	return "count"
}

// printReport writes the human-readable report: provenance, every
// metric by name with its unit, failures by class and any model
// mismatches.
func printReport(o options, r *report) {
	host, _ := json.Marshal(r.host)
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("host %s\n", host)
	names := make([]string, 0, len(r.all))
	for n := range r.all {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.4f %s\n", n, r.all[n].Value, r.all[n].Unit)
	}
	fmt.Printf("  latency samples in the measured range: read=%d write=%d (percentiles are medians over %d chunks)\n",
		r.samples["read"], r.samples["write"], measureChunks)
	fmt.Printf("  completions per second: %v\n", r.buckets)
	fmt.Printf("  measured-range chunks (ops/s, p50 us): %v\n", r.chunkLine)
	fmt.Printf("  measured-range chunks (cpu us/op): %.1f\n", r.chunkCPU)
	fmt.Printf("  set-ups (s): %.3f\n", r.setups)
	fmt.Printf("ops attempted=%d failed=%d by class %v\n", r.Attempted, r.Failed, r.failedBy)
	for _, e := range r.errSample {
		fmt.Println("  failed op " + e)
	}
	if r.Correct {
		fmt.Println("correctness: OK (live and after restart)")
	} else {
		fmt.Println("correctness: FAILED")
		for _, m := range r.mismatches {
			fmt.Println("  " + m)
		}
	}
}
