package main

import (
	"math"
	"sort"
)

// The host this runs on is a few vCPUs of a shared machine: its noise is
// one-sided (a sample is only ever slowed down) and arrives in bursts of
// seconds. The fastest sample is therefore the repeatable one; means and
// medians of timings are not. Everything timed below goes through minOf or
// quietSum; counts, which repeat exactly, go through median.

// minOf returns the smallest value, or NaN for an empty series.
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// argMin returns the index of the smallest value (-1 when empty).
func argMin(xs []float64) int {
	best := -1
	for i, x := range xs {
		if best < 0 || x < xs[best] {
			best = i
		}
	}
	return best
}

// quantile returns the q-quantile (0..1) by the nearest-rank rule on a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs)%2 == 1 {
		return quantile(xs, 0.5)
	}
	return (quantile(xs, 0.5) + quantile(xs, 0.5+0.5/float64(len(xs)))) / 2
}

// quietSum is the finer estimator for op lists whose ops are seconds long:
// samples[rep][op] is the time of op in rep, and the quiet time of the list
// is the sum over ops of that op's fastest sample. A burst that hits one op
// of every rep still leaves the other ops' best samples clean, which a
// best-whole-rep rule would not. pick[op] is the rep the sample came from.
func quietSum(samples [][]float64) (sum float64, pick []int) {
	if len(samples) == 0 {
		return math.NaN(), nil
	}
	n := len(samples[0])
	pick = make([]int, n)
	for op := 0; op < n; op++ {
		col := make([]float64, len(samples))
		for r := range samples {
			col[r] = samples[r][op]
		}
		pick[op] = argMin(col)
		sum += col[pick[op]]
	}
	return sum, pick
}

// tail returns the highest order statistic that still has at least ten
// samples beyond it, and the percentile it sits at; with fewer than twenty
// samples no such statistic means anything and the maximum is returned with
// percentile 100.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n < 20 {
		return s[n-1], 100
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n)
}

// spreadPct is (median − best)/best in percent: how far the typical sample
// sat above the quiet one. Large on a disturbed host, small on a quiet one,
// whatever the metric itself does.
func spreadPct(xs []float64) float64 {
	b := minOf(xs)
	return 100 * (median(xs) - b) / b
}
