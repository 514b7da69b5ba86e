// Package metrics implements the evaluation metrics used throughout the
// paper reproduction: the coefficient of determination (R²) that drives the
// architecture search, RMSE breakdowns for the geophysical comparisons, the
// moving-window averages used in the search-trajectory figures, and the
// trapezoidal area-under-curve node-utilization metric from Table III.
package metrics

import (
	"fmt"
	"math"
)

// R2 returns the coefficient of determination between predictions and
// targets, computed over all entries jointly (the "variance weighted over a
// flattened view" convention): R² = 1 − SS_res/SS_tot, where SS_tot is taken
// about the mean of the targets. A perfect fit gives 1; predicting the
// target mean gives 0; worse-than-mean predictions give negative values.
// It panics if the slices differ in length and returns NaN for empty input
// or zero target variance.
func R2(pred, target []float64) float64 {
	if len(pred) != len(target) {
		panic(fmt.Sprintf("metrics: R2 length mismatch %d vs %d", len(pred), len(target)))
	}
	n := len(target)
	if n == 0 {
		return math.NaN()
	}
	var mean float64
	for _, v := range target {
		mean += v
	}
	mean /= float64(n)
	var ssRes, ssTot float64
	for i, t := range target {
		d := pred[i] - t
		ssRes += d * d
		c := t - mean
		ssTot += c * c
	}
	//podnas:allow floateq exact zero-variance guard: R2 is undefined only at bitwise-zero SS_tot
	if ssTot == 0 {
		return math.NaN()
	}
	return 1 - ssRes/ssTot
}

// ApproxEqual reports whether a and b are within tol of each other. It is
// the approved comparison helper podnaslint's floateq check steers float
// comparisons through: NaN never compares equal to anything (use math.IsNaN
// to branch on divergence), equal infinities do, and tol must be
// non-negative. Direct ==/!= between floats elsewhere needs a justified
// //podnas:allow floateq directive.
func ApproxEqual(a, b, tol float64) bool {
	if tol < 0 {
		panic("metrics: ApproxEqual tolerance must be non-negative")
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		//podnas:allow floateq infinities of the same sign are exactly equal; arithmetic on them yields NaN
		return a == b
	}
	return math.Abs(a-b) <= tol
}

// MSE returns the mean squared error.
func MSE(pred, target []float64) float64 {
	if len(pred) != len(target) {
		panic("metrics: MSE length mismatch")
	}
	if len(target) == 0 {
		return math.NaN()
	}
	var s float64
	for i, t := range target {
		d := pred[i] - t
		s += d * d
	}
	return s / float64(len(target))
}

// RMSE returns the root mean squared error.
func RMSE(pred, target []float64) float64 { return math.Sqrt(MSE(pred, target)) }

// MAE returns the mean absolute error.
func MAE(pred, target []float64) float64 {
	if len(pred) != len(target) {
		panic("metrics: MAE length mismatch")
	}
	if len(target) == 0 {
		return math.NaN()
	}
	var s float64
	for i, t := range target {
		s += math.Abs(pred[i] - t)
	}
	return s / float64(len(target))
}

// MovingAverage returns the trailing moving average of xs with the given
// window, matching the paper's reward smoothing (window 100). Entry i
// averages xs[max(0,i-window+1) .. i].
func MovingAverage(xs []float64, window int) []float64 {
	if window <= 0 {
		panic("metrics: MovingAverage window must be positive")
	}
	out := make([]float64, len(xs))
	var sum float64
	for i, v := range xs {
		sum += v
		if i >= window {
			sum -= xs[i-window]
			out[i] = sum / float64(window)
		} else {
			out[i] = sum / float64(i+1)
		}
	}
	return out
}

// WindowMA is the streaming counterpart of MovingAverage: a trailing
// moving average over the last `window` pushed values. Value sums the
// buffered entries in insertion order, so while the window has not wrapped
// it is bitwise-identical to MovingAverage over the same inputs, and agrees
// to float rounding afterwards. It is the single implementation behind the
// live obs.Metrics reward average and trace replay, keeping the
// live-vs-post-hoc cross-checks exact. Not safe for concurrent use; callers
// hold their own locks.
type WindowMA struct {
	buf  []float64
	next int
	n    int
	last float64
}

// NewWindowMA returns a streaming average over the last window values
// (minimum 1).
func NewWindowMA(window int) *WindowMA {
	if window < 1 {
		window = 1
	}
	return &WindowMA{buf: make([]float64, window)}
}

// Push appends one sample, evicting the oldest when the window is full.
func (w *WindowMA) Push(v float64) {
	w.buf[w.next] = v
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.last = v
}

// Value returns the trailing average, summed oldest-first. Zero before any
// Push.
func (w *WindowMA) Value() float64 {
	if w.n == 0 {
		return 0
	}
	start := w.next - w.n
	if start < 0 {
		start += len(w.buf)
	}
	var sum float64
	for i := 0; i < w.n; i++ {
		sum += w.buf[(start+i)%len(w.buf)]
	}
	return sum / float64(w.n)
}

// Count returns how many samples are currently buffered (≤ window).
func (w *WindowMA) Count() int { return w.n }

// Last returns the most recently pushed sample (zero before any Push).
func (w *WindowMA) Last() float64 { return w.last }

// Interval is a closed busy span [Lo, Hi] on one execution slot (an hpcsim
// node or a live evaluation worker), in seconds.
type Interval struct{ Lo, Hi float64 }

// Seconds returns the span length, zero for degenerate intervals.
func (iv Interval) Seconds() float64 {
	if iv.Hi <= iv.Lo {
		return 0
	}
	return iv.Hi - iv.Lo
}

// BusySeconds sums the lengths of all intervals (degenerate spans count
// zero). With per-slot non-overlapping intervals this is the busy-time
// numerator of the paper's Table III utilization metric.
func BusySeconds(spans []Interval) float64 {
	var s float64
	for _, iv := range spans {
		s += iv.Seconds()
	}
	return s
}

// UtilizationAUC is busy time over ideal capacity (slots × wall), the
// trapezoid-equivalent area ratio hpcsim reports as Table III utilization
// and obs.Metrics tracks live. Returns 0 for non-positive capacity.
func UtilizationAUC(spans []Interval, slots int, wall float64) float64 {
	if slots <= 0 || wall <= 0 {
		return 0
	}
	return BusySeconds(spans) / (float64(slots) * wall)
}

// BusyBins distributes interval time into nBins contiguous bins of
// binWidth seconds starting at 0: bins[b] accumulates the seconds of each
// span overlapping [b·binWidth, (b+1)·binWidth). Span time beyond the grid
// is dropped, matching hpcsim's sampled utilization trace (whose grid
// always covers the wall time). It panics on a non-positive binWidth.
func BusyBins(spans []Interval, binWidth float64, nBins int) []float64 {
	if binWidth <= 0 {
		panic("metrics: BusyBins binWidth must be positive")
	}
	bins := make([]float64, nBins)
	for _, iv := range spans {
		lo, hi := iv.Lo, iv.Hi
		if hi <= lo {
			continue
		}
		b0 := int(lo / binWidth)
		if b0 < 0 {
			b0 = 0
		}
		b1 := int(hi / binWidth)
		if b1 >= nBins {
			b1 = nBins - 1
		}
		for b := b0; b <= b1; b++ {
			s := math.Max(lo, float64(b)*binWidth)
			e := math.Min(hi, float64(b+1)*binWidth)
			if e > s {
				bins[b] += e - s
			}
		}
	}
	return bins
}

// TrapezoidAUC integrates the piecewise-linear curve (xs, ys) with the
// trapezoidal rule. xs must be nondecreasing and the slices equal length.
func TrapezoidAUC(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("metrics: TrapezoidAUC length mismatch")
	}
	var area float64
	for i := 1; i < len(xs); i++ {
		dx := xs[i] - xs[i-1]
		if dx < 0 {
			panic("metrics: TrapezoidAUC xs must be nondecreasing")
		}
		area += 0.5 * dx * (ys[i] + ys[i-1])
	}
	return area
}

// MeanStd returns the mean and (population) standard deviation of xs.
func MeanStd(xs []float64) (mean, std float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	for _, v := range xs {
		mean += v
	}
	mean /= float64(n)
	var s float64
	for _, v := range xs {
		d := v - mean
		s += d * d
	}
	return mean, math.Sqrt(s / float64(n))
}

// Quantile returns the q-quantile of sorted (ascending) by linear
// interpolation between order statistics — the R-7 rule most tooling uses.
// q is clamped into [0, 1]; an empty slice gives 0. It is the one quantile
// definition in the repo: the live latency histograms (internal/obs) and
// the post-hoc ones (internal/obs/replay) both call it, so a replayed p99
// equals the live one bit for bit.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if q >= 1 || lo+1 >= n {
		return sorted[n-1]
	}
	// This form, not a·(1−f) + b·f: between equal neighbours it returns
	// them exactly.
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// Curve is a sampled (x, y) trajectory, e.g. reward vs wall-clock minutes.
type Curve struct {
	X []float64
	Y []float64
}

// Append adds a sample point.
func (c *Curve) Append(x, y float64) {
	c.X = append(c.X, x)
	c.Y = append(c.Y, y)
}

// Len returns the number of samples.
func (c *Curve) Len() int { return len(c.X) }

// ValueAt linearly interpolates the curve at x, clamping outside the domain.
func (c *Curve) ValueAt(x float64) float64 {
	n := len(c.X)
	if n == 0 {
		return math.NaN()
	}
	if x <= c.X[0] {
		return c.Y[0]
	}
	if x >= c.X[n-1] {
		return c.Y[n-1]
	}
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if c.X[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	x0, x1 := c.X[lo], c.X[hi]
	//podnas:allow floateq exact degenerate-segment guard before dividing by x1-x0
	if x1 == x0 {
		return c.Y[lo]
	}
	w := (x - x0) / (x1 - x0)
	return (1-w)*c.Y[lo] + w*c.Y[hi]
}

// Resample evaluates the curve at n evenly spaced points over [x0, x1].
func (c *Curve) Resample(x0, x1 float64, n int) *Curve {
	out := &Curve{X: make([]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		x := x0
		if n > 1 {
			x = x0 + (x1-x0)*float64(i)/float64(n-1)
		}
		out.X[i] = x
		out.Y[i] = c.ValueAt(x)
	}
	return out
}

// EnsembleBand computes, pointwise over equally sampled curves, the mean and
// mean±k·std band. All curves must have the same X grid (use Resample).
func EnsembleBand(curves []*Curve, k float64) (mean, lo, hi *Curve) {
	if len(curves) == 0 {
		return &Curve{}, &Curve{}, &Curve{}
	}
	n := curves[0].Len()
	for _, c := range curves {
		if c.Len() != n {
			panic("metrics: EnsembleBand curves must share a grid")
		}
	}
	mean, lo, hi = &Curve{}, &Curve{}, &Curve{}
	buf := make([]float64, len(curves))
	for i := 0; i < n; i++ {
		for j, c := range curves {
			buf[j] = c.Y[i]
		}
		m, s := MeanStd(buf)
		x := curves[0].X[i]
		mean.Append(x, m)
		lo.Append(x, m-k*s)
		hi.Append(x, m+k*s)
	}
	return mean, lo, hi
}
