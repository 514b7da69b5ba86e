package main

import (
	"fmt"
	"math"
	"time"

	"podnas"
	"podnas/internal/tensor"
)

// forecastSection is the emulator's product: batch-1 forecasts of the full
// temperature field from an (untrained) network of the search space, on the
// small grid nasrun defaults to.
type forecastSection struct {
	p     *podnas.Pipeline
	model *podnas.Model
	pairs [][2]int // (start week, lead)

	verified bool
}

// fieldSum folds a field into 64 bits; any changed bit of any value shows.
func fieldSum(field []float64) uint64 {
	var h uint64
	for _, v := range field {
		h = (h<<1 | h>>63) ^ math.Float64bits(v)
	}
	return h
}

// newForecastSection builds the small pipeline, the q90 candidate with
// weights drawn from seed, and n seeded (start week, lead) pairs whose
// windows lie in the test period; it then runs the warm-up rep.
func newForecastSection(seed uint64, n int) (*forecastSection, error) {
	p, err := podnas.NewPipeline(podnas.SmallPipelineConfig())
	if err != nil {
		return nil, err
	}
	space := p.DefaultSpace()
	cands, err := pickCandidates(space, candidatePoolSeed)
	if err != nil {
		return nil, err
	}
	model, err := p.BuildArch(space, cands[len(cands)-1].arch, seed)
	if err != nil {
		return nil, err
	}
	k := p.Cfg.K
	lo, hi := p.NumTrain+k, p.Data.Weeks()-k
	if hi < lo {
		return nil, fmt.Errorf("test period of %d weeks holds no forecast window", p.Data.Weeks()-p.NumTrain)
	}
	rng := tensor.NewRNG(seed)
	s := &forecastSection{p: p, model: model}
	for i := 0; i < n; i++ {
		s.pairs = append(s.pairs, [2]int{lo + rng.Intn(hi-lo+1), 1 + rng.Intn(k)})
	}
	if _, err := s.rep(mode{}); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *forecastSection) numOps() int      { return len(s.pairs) }
func (s *forecastSection) slots() int       { return 1 }
func (s *forecastSection) obsModes() []bool { return []bool{false} }
func (s *forecastSection) close() error     { s.p, s.model = nil, nil; return nil }

func (s *forecastSection) rep(m mode) (repData, error) {
	d := repData{ops: make([]opSample, len(s.pairs))}
	for i, pr := range s.pairs {
		t, lead := pr[0], pr[1]
		var field []float64
		var err error
		t0 := time.Now()
		if m.tr == nil {
			field, err = s.model.ForecastField(t, lead)
		} else {
			// ForecastField is these two calls; traced reps make them
			// singly so each gets its span.
			root := m.tr.begin("forecast.field", 0, m.base+i)
			id := m.tr.begin("model.predict_coefficients", root, m.base+i)
			coeff, cerr := s.model.PredictCoefficients(t)
			m.tr.end(id)
			if err = cerr; err == nil {
				id = m.tr.begin("pod.reconstruct", root, m.base+i)
				field = s.p.Basis.ReconstructSnapshot(coeff.Row(lead - 1))
				m.tr.end(id)
			}
			m.tr.end(root)
		}
		wall := time.Since(t0).Seconds()
		op := opSample{wall: wall, err: err}
		if err == nil {
			op.out = fieldSum(field)
			if m.tr != nil && !s.verified {
				whole, werr := s.model.ForecastField(t, lead)
				if werr != nil || fieldSum(whole) != op.out {
					op.err = fmt.Errorf("forecast (%d,%d): the two-call form differs from ForecastField (%v)", t, lead, werr)
				}
			}
		}
		d.ops[i] = op
		d.busy += wall
	}
	if m.tr != nil {
		s.verified = true
	}
	return d, nil
}

// layers reports the batch-1 forward pass and the POD reconstruction.
func (s *forecastSection) layers(tr *tracer, out map[string]float64) error {
	k, nr := s.p.Cfg.K, s.p.Cfg.Nr
	x := tensor.NewTensor3(1, k, nr)
	tensor.NewRNG(5).FillUniform(x.Data, -0.5, 0.5)
	var fwd []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		s.model.Graph.Forward(x)
		fwd = append(fwd, time.Since(t0).Seconds())
	}
	out["nn.forward_b1_us"] = 1e6 * minOf(fwd)
	out["pod.reconstruct_us"] = 1e6 * minOf(tr.durations("pod.reconstruct"))
	return nil
}
