package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// quantile is a percentile as reported: its value, the percentile actually
// used, and the sample count it came from.
type quantile struct {
	Value float64 `json:"value"`
	Q     float64 `json:"q"`
	N     int     `json:"n"`
}

// pct returns the nearest-rank q-quantile of xs (sorted in place). A tail
// percentile with fewer than minBeyond samples beyond it is lowered to the
// highest one that has them.
func pct(xs []float64, q float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{Q: q}
	}
	sort.Float64s(xs)
	if q > 0.5 {
		maxQ := float64(n-minBeyond) / float64(n)
		if q > maxQ {
			q = math.Max(0.5, math.Floor(maxQ*1000)/1000)
		}
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return quantile{Value: xs[idx], Q: q, N: n}
}

func median(xs []float64) float64 { return pct(append([]float64(nil), xs...), 0.5).Value }

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func durUS(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// liveHeap is the Go heap in use after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// rtSample is a reading of the runtime/metrics the per-layer table uses.
type rtSample struct {
	alloc    uint64
	gcCPU    float64
	totalCPU float64
	pauses   *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out rtSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.alloc = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		out.pauses = s[3].Value.Float64Histogram()
	}
	return out
}

// pauseP99US is the p99 GC pause between two readings, as the upper edge
// of the histogram bucket holding it, in microseconds (0 with no pauses).
func pauseP99US(before, after rtSample) float64 {
	if before.pauses == nil || after.pauses == nil || len(before.pauses.Counts) != len(after.pauses.Counts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(after.pauses.Counts))
	for i := range delta {
		delta[i] = after.pauses.Counts[i] - before.pauses.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range delta {
		cum += c
		if cum >= rank {
			edge := after.pauses.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = after.pauses.Buckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}
