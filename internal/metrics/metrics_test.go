package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"podnas/internal/tensor"
)

func TestR2PerfectFit(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	if r := R2(y, y); r != 1 {
		t.Errorf("R2 of perfect fit = %g, want 1", r)
	}
}

func TestR2MeanPredictorIsZero(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	pred := []float64{2.5, 2.5, 2.5, 2.5}
	if r := R2(pred, y); math.Abs(r) > 1e-14 {
		t.Errorf("R2 of mean predictor = %g, want 0", r)
	}
}

func TestR2WorseThanMeanIsNegative(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	pred := []float64{4, 3, 2, 1}
	if r := R2(pred, y); r >= 0 {
		t.Errorf("R2 of anti-correlated predictor = %g, want negative", r)
	}
}

func TestR2AtMostOne(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 2 + rng.Intn(50)
		y := make([]float64, n)
		p := make([]float64, n)
		rng.FillNormal(y, 1)
		rng.FillNormal(p, 1)
		r := R2(p, y)
		return math.IsNaN(r) || r <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestR2NaNCases(t *testing.T) {
	if !math.IsNaN(R2(nil, nil)) {
		t.Error("empty R2 should be NaN")
	}
	if !math.IsNaN(R2([]float64{1, 1}, []float64{2, 2})) {
		t.Error("constant-target R2 should be NaN")
	}
}

func TestRMSEKnown(t *testing.T) {
	pred := []float64{1, 2}
	y := []float64{4, 6}
	// Errors 3 and 4 → MSE 12.5, RMSE 3.5355.
	if m := MSE(pred, y); math.Abs(m-12.5) > 1e-12 {
		t.Errorf("MSE = %g", m)
	}
	if r := RMSE(pred, y); math.Abs(r-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMSE = %g", r)
	}
	if m := MAE(pred, y); math.Abs(m-3.5) > 1e-12 {
		t.Errorf("MAE = %g", m)
	}
}

func TestMovingAverage(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	got := MovingAverage(xs, 2)
	want := []float64{1, 1.5, 2.5, 3.5, 4.5}
	for i, v := range want {
		if math.Abs(got[i]-v) > 1e-14 {
			t.Errorf("MovingAverage[%d] = %g, want %g", i, got[i], v)
		}
	}
}

func TestMovingAverageWindowOne(t *testing.T) {
	xs := []float64{3, 1, 4}
	got := MovingAverage(xs, 1)
	for i, v := range xs {
		if got[i] != v {
			t.Errorf("window-1 moving average must be identity, got %v", got)
		}
	}
}

func TestMovingAverageBounds(t *testing.T) {
	// Property: moving average stays within [min, max] of the input.
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		rng.FillNormal(xs, 1)
		lo, hi := xs[0], xs[0]
		for _, v := range xs {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		for _, v := range MovingAverage(xs, 1+rng.Intn(10)) {
			if v < lo-1e-12 || v > hi+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTrapezoidAUC(t *testing.T) {
	// Unit square: y=1 over [0,2] → area 2.
	if a := TrapezoidAUC([]float64{0, 1, 2}, []float64{1, 1, 1}); math.Abs(a-2) > 1e-14 {
		t.Errorf("AUC = %g, want 2", a)
	}
	// Triangle: y=x over [0,1] → area 0.5.
	if a := TrapezoidAUC([]float64{0, 0.5, 1}, []float64{0, 0.5, 1}); math.Abs(a-0.5) > 1e-14 {
		t.Errorf("AUC = %g, want 0.5", a)
	}
}

func TestMeanStd(t *testing.T) {
	m, s := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(m-5) > 1e-14 || math.Abs(s-2) > 1e-14 {
		t.Errorf("MeanStd = %g, %g; want 5, 2", m, s)
	}
}

func TestCurveValueAt(t *testing.T) {
	c := &Curve{}
	c.Append(0, 0)
	c.Append(10, 100)
	if v := c.ValueAt(5); math.Abs(v-50) > 1e-12 {
		t.Errorf("interpolation = %g, want 50", v)
	}
	if v := c.ValueAt(-1); v != 0 {
		t.Errorf("left clamp = %g, want 0", v)
	}
	if v := c.ValueAt(11); v != 100 {
		t.Errorf("right clamp = %g, want 100", v)
	}
}

func TestCurveResample(t *testing.T) {
	c := &Curve{}
	c.Append(0, 0)
	c.Append(4, 8)
	r := c.Resample(0, 4, 5)
	if r.Len() != 5 {
		t.Fatalf("resampled length %d", r.Len())
	}
	for i := 0; i < 5; i++ {
		if math.Abs(r.Y[i]-2*float64(i)) > 1e-12 {
			t.Errorf("resample Y[%d] = %g", i, r.Y[i])
		}
	}
}

func TestEnsembleBand(t *testing.T) {
	c1 := &Curve{X: []float64{0, 1}, Y: []float64{1, 3}}
	c2 := &Curve{X: []float64{0, 1}, Y: []float64{3, 5}}
	mean, lo, hi := EnsembleBand([]*Curve{c1, c2}, 2)
	if mean.Y[0] != 2 || mean.Y[1] != 4 {
		t.Errorf("band mean = %v", mean.Y)
	}
	// std = 1 at both points → band ±2.
	if lo.Y[0] != 0 || hi.Y[0] != 4 {
		t.Errorf("band at x=0: lo %g hi %g", lo.Y[0], hi.Y[0])
	}
}

func TestCurveEmptyAndSinglePoint(t *testing.T) {
	c := &Curve{}
	if !math.IsNaN(c.ValueAt(1)) {
		t.Error("empty curve should return NaN")
	}
	c.Append(2, 5)
	if c.ValueAt(0) != 5 || c.ValueAt(99) != 5 {
		t.Error("single-point curve should clamp everywhere")
	}
	r := c.Resample(0, 1, 1)
	if r.Len() != 1 || r.Y[0] != 5 {
		t.Errorf("single-sample resample = %+v", r)
	}
}

func TestEnsembleBandEmpty(t *testing.T) {
	mean, lo, hi := EnsembleBand(nil, 2)
	if mean.Len() != 0 || lo.Len() != 0 || hi.Len() != 0 {
		t.Error("empty ensemble should give empty curves")
	}
}

func TestMeanStdEmpty(t *testing.T) {
	m, s := MeanStd(nil)
	if !math.IsNaN(m) || !math.IsNaN(s) {
		t.Error("empty MeanStd should be NaN")
	}
}

func TestTrapezoidAUCPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for decreasing xs")
		}
	}()
	TrapezoidAUC([]float64{1, 0}, []float64{1, 1})
}

func TestMovingAveragePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero window")
		}
	}()
	MovingAverage([]float64{1}, 0)
}

func TestMSEMAEEmpty(t *testing.T) {
	if !math.IsNaN(MSE(nil, nil)) || !math.IsNaN(MAE(nil, nil)) {
		t.Error("empty MSE/MAE should be NaN")
	}
}

func TestMovingAverageMatchesBruteForce(t *testing.T) {
	// Property: the rolling-sum implementation equals the O(n·w) definition.
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 1 + rng.Intn(60)
		w := 1 + rng.Intn(15)
		xs := make([]float64, n)
		rng.FillNormal(xs, 3)
		got := MovingAverage(xs, w)
		for i := range xs {
			lo := i - w + 1
			if lo < 0 {
				lo = 0
			}
			var s float64
			for j := lo; j <= i; j++ {
				s += xs[j]
			}
			want := s / float64(i-lo+1)
			if math.Abs(got[i]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCurveValueAtMonotoneBetweenKnots(t *testing.T) {
	c := &Curve{X: []float64{0, 1, 2}, Y: []float64{0, 10, 0}}
	if v := c.ValueAt(0.25); math.Abs(v-2.5) > 1e-12 {
		t.Errorf("interp(0.25) = %g", v)
	}
	if v := c.ValueAt(1.5); math.Abs(v-5) > 1e-12 {
		t.Errorf("interp(1.5) = %g", v)
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 4, 8}
	for _, c := range []struct{ q, want float64 }{
		{-1, 1}, {0, 1}, {0.5, 3}, {1.0 / 3, 2}, {0.9, 6.8}, {1, 8}, {2, 8},
	} {
		if got := Quantile(s, c.q); !ApproxEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v, %v) = %v, want %v", s, c.q, got, c.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	// Between equal neighbours the sample itself comes back, exactly.
	if got := Quantile([]float64{0.1, 0.1, 0.1}, 0.37); got != 0.1 {
		t.Errorf("constant-sample quantile = %v, want exactly 0.1", got)
	}
}
