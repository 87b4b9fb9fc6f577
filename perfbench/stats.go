package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie strictly beyond a
// reported percentile. Fewer would let a handful of outliers decide the
// value, which is what made earlier latency percentiles unrepeatable.
const minBeyond = 10

// quantile is a nearest-rank percentile together with the evidence
// behind it: the sample count and how many samples lie beyond it.
type quantile struct {
	P      float64
	Value  float64
	N      int
	Beyond int
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs.
// The rank is ceil(p·n), 1-based; Beyond counts the n-rank samples
// ranked above it.
func percentile(xs []float64, p float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{P: p}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	rank = min(max(rank, 1), n)
	return quantile{P: p, Value: s[rank-1], N: n, Beyond: n - rank}
}

// ok reports whether enough samples lie beyond the percentile.
func (q quantile) ok() bool { return q.N > 0 && q.Beyond >= minBeyond }

// samplesFor is the smallest sample count at which the p-quantile has
// minBeyond samples beyond it.
func samplesFor(p float64) int {
	n := minBeyond
	for !percentile(make([]float64, n), p).ok() {
		n++
	}
	return n
}

func (q quantile) String() string {
	return fmt.Sprintf("p%02.0f=%.6g (n=%d, %d beyond)", q.P*100, q.Value, q.N, q.Beyond)
}

// median of xs (the mean of the middle pair for even counts).
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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// paperFig12 holds the paper's Figure 12 mean speed-ups of Dolos
// Full/Partial/Post-WPQ over Pre-WPQ-Secure.
var paperFig12 = [3]float64{1.66, 1.66, 1.59}

// fig12Err is the mean relative distance of the simulated mean
// speed-ups from the paper's.
func fig12Err(sim [3]float64) float64 {
	var sum float64
	for i, p := range paperFig12 {
		sum += math.Abs(sim[i]-p) / p
	}
	return sum / float64(len(paperFig12))
}
