package main

import (
	"strings"

	"origami/internal/telemetry"
)

// traceLayers are the span components the self-time report names, in
// blocking-path order: the benchmark's own span around the SDK call,
// then the SDK, the server's RPC dispatch, the MDS handler, the store's
// commit and replication acks.
var traceLayers = []string{"bench", "client", "rpc", "mds", "kvstore", "repl"}

// layerSelf returns, per component, the summed self time (span duration
// minus the union of its children) over one assembled trace, plus the
// summed duration of every kvstore.commit span (the commit ack wait).
func layerSelf(spans []telemetry.Span) (self map[string]int64, commitNS int64, commits int) {
	self = map[string]int64{}
	var visit func(n *telemetry.TraceNode)
	visit = func(n *telemetry.TraceNode) {
		iv := interval{n.StartUnixNano, n.StartUnixNano + n.DurationNS}
		kids := make([]interval, len(n.Children))
		for i, c := range n.Children {
			kids[i] = interval{c.StartUnixNano, c.StartUnixNano + c.DurationNS}
			visit(c)
		}
		self[n.Component()] += selfTime(iv, kids)
		if n.Name == "kvstore.commit" {
			commitNS += n.DurationNS
			commits++
		}
	}
	for _, r := range telemetry.AssembleTrace(spans) {
		if strings.HasPrefix(r.Name, "bench.") {
			visit(r)
		}
	}
	return self, commitNS, commits
}

// traceReport turns the sampled traces into per-layer mean self times
// (µs per sampled op), the commit ack wait, and the unattributed share:
// op time outside every program span (the bench layer's self time).
func traceReport(traces []sampledTrace) map[string]metric {
	out := map[string]metric{}
	totals := map[string]int64{}
	var commitNS int64
	var commits int
	var latNS int64
	for _, t := range traces {
		self, cns, cn := layerSelf(t.spans)
		for k, v := range self {
			totals[k] += v
		}
		commitNS += cns
		commits += cn
		latNS += t.latency.Nanoseconds()
	}
	n := float64(len(traces))
	for _, l := range traceLayers {
		if l == "bench" {
			continue
		}
		out["trace."+l+"_self_us"] = metric{ratio(float64(totals[l]), n) / 1000, "us"}
	}
	out["trace.unattributed_us"] = metric{ratio(float64(totals["bench"]), n) / 1000, "us"}
	out["trace.sampled_op_us"] = metric{ratio(float64(latNS), n) / 1000, "us"}
	out["trace.sampled_ops"] = metric{n, "count"}
	out["commit.ack_wait_us"] = metric{ratio(float64(commitNS), float64(commits)) / 1000, "us"}
	return out
}
