package main

import (
	"math"
	"sort"
	"strings"
	"time"

	"origami/internal/telemetry"
)

// percentile returns the nearest-rank pth percentile (0 < p <= 100) of
// sorted samples: the smallest sample with at least p% of the samples at
// or below it. Zero samples give 0.
func percentile(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// ratio divides num by den, giving 0 when the base is zero so an idle
// layer reads as "no work" instead of NaN or Inf.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median returns the middle of xs (mean of the two middles for an even
// count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// snapDelta is the change of one registry between two snapshots.
// Counters and histogram count/sum are differenced; a metric absent from
// the earlier snapshot counts from zero (it was registered in between).
type snapDelta struct {
	counters map[string]int64
	histSum  map[string]int64
	histN    map[string]int64
}

func diffSnapshots(before, after telemetry.Snapshot) snapDelta {
	d := snapDelta{
		counters: make(map[string]int64, len(after.Counters)),
		histSum:  make(map[string]int64, len(after.Histograms)),
		histN:    make(map[string]int64, len(after.Histograms)),
	}
	for name, v := range after.Counters {
		if dv := v - before.Counters[name]; dv != 0 {
			d.counters[name] = dv
		}
	}
	for name, h := range after.Histograms {
		b := before.Histograms[name]
		if dn := h.Count - b.Count; dn != 0 {
			d.histN[name] = dn
			d.histSum[name] = h.Sum - b.Sum
		}
	}
	return d
}

// add folds another delta into d (summing registries of several nodes).
func (d snapDelta) add(o snapDelta) {
	for k, v := range o.counters {
		d.counters[k] += v
	}
	for k, v := range o.histSum {
		d.histSum[k] += v
	}
	for k, v := range o.histN {
		d.histN[k] += v
	}
}

func newSnapDelta() snapDelta {
	return snapDelta{counters: map[string]int64{}, histSum: map[string]int64{}, histN: map[string]int64{}}
}

// hist returns the summed count and sum of every histogram named
// prefix+X+suffix with X in names (all such histograms when names is nil).
func (d snapDelta) hist(prefix, suffix string, names map[string]bool) (n, sum int64) {
	for k, c := range d.histN {
		if !strings.HasPrefix(k, prefix) || !strings.HasSuffix(k, suffix) {
			continue
		}
		mid := k[len(prefix) : len(k)-len(suffix)]
		if names != nil && !names[mid] {
			continue
		}
		n += c
		sum += d.histSum[k]
	}
	return n, sum
}

// meanHist is the mean of one histogram's observations over the delta.
func (d snapDelta) meanHist(name string) float64 {
	return ratio(float64(d.histSum[name]), float64(d.histN[name]))
}

// counterSum sums every counter named prefix+X+suffix with X in names.
func (d snapDelta) counterSum(prefix, suffix string, names map[string]bool) int64 {
	var n int64
	for k, v := range d.counters {
		if !strings.HasPrefix(k, prefix) || !strings.HasSuffix(k, suffix) {
			continue
		}
		if names != nil && !names[k[len(prefix):len(k)-len(suffix)]] {
			continue
		}
		n += v
	}
	return n
}

// interval is a half-open [start, end) span of time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime returns how much of parent is not covered by the union of
// children, each clipped to the parent. Overlapping children are counted
// once, so concurrent sub-calls do not drive self time negative.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	cur := interval{start: -1, end: -1}
	for _, c := range clipped {
		if cur.end < 0 || c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		if c.end > cur.end {
			cur.end = c.end
		}
	}
	covered += cur.end - cur.start
	return (parent.end - parent.start) - covered
}
