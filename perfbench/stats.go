package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSamples is how many samples must lie beyond the reported tail, and
// maxTailPct caps the tail percentile. Beyond p99 the chip-16x16 step and
// query tails are set by a handful of GC and host spikes per run, and read
// 30-45% apart from run to run on the same inputs.
const (
	tailSamples = 10
	maxTailPct  = 99.0
)

// tail returns the highest percentile of xs that still has tailSamples
// samples beyond it, capped at maxTailPct, and that percentile. With too
// few samples for that, it falls back to the maximum (percentile 100).
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= tailSamples {
		return s[n-1], 100
	}
	i := n - 1 - tailSamples
	if limit := int(math.Ceil(float64(n)*maxTailPct/100)) - 1; limit < i {
		i = limit
	}
	return s[i], 100 * float64(i+1) / float64(n)
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}
