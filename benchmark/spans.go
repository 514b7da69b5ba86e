package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Spans of one op share Op; Parent is the span that caused this
// one (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans and named scalar samples in memory until the run ends.
// A nil *tracer records nothing, so untraced reps pay one nil check per call.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	values map[string][]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), values: map[string][]float64{}} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span now and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t.us(now)})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = t.us(now)
	t.mu.Unlock()
}

// add records a span whose endpoints were taken elsewhere (an epoch
// callback, an event's arrival) and returns its id.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t.us(start), End: t.us(end)})
	return id
}

// value records one scalar sample under a metric name.
func (t *tracer) value(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.values[name] = append(t.values[name], v)
	t.mu.Unlock()
}

// durations returns the durations, in seconds, of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur()/1e6)
		}
	}
	return out
}

// covered returns how much of [lo, hi] the intervals cover, counting
// overlapping intervals once: children of one span may run concurrently.
func covered(lo, hi float64, iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum float64
	at := lo
	for _, c := range iv {
		a, b := c[0], c[1]
		if a < at {
			a = at
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b - a
			at = b
		}
	}
	return sum
}

// selfTimes returns, per span id, the span's duration minus the part of it
// its direct children cover, in microseconds.
func selfTimes(spans []span) map[int]float64 {
	kids := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// opCoverage returns the smallest share of an op's wall time that its child
// spans account for, over the ops whose root span has children. Rep r gives
// op i of an n-op list the id r·n+i (ids from decomposedOpBase up are single
// samples); an op is judged on the rep that covered it best, because a
// preemption between two child spans says nothing about the spans.
func opCoverage(spans []span, n int) (worst float64, ops int) {
	self := selfTimes(spans)
	hasKids := map[int]bool{}
	byID := map[int]span{}
	for _, s := range spans {
		hasKids[s.Parent] = true
		byID[s.ID] = s
	}
	best := map[int]float64{}
	for _, s := range spans {
		if s.Op < 0 || !hasKids[s.ID] || s.dur() <= 0 {
			continue
		}
		if p, ok := byID[s.Parent]; ok && p.Op == s.Op {
			continue // not the op's root
		}
		op := s.Op
		if op < decomposedOpBase {
			op %= n
		}
		if c := 1 - self[s.ID]/s.dur(); c > best[op] {
			best[op] = c
		}
	}
	worst = 1
	for _, c := range best {
		if c < worst {
			worst = c
		}
	}
	return worst, len(best)
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID] / 1e3
	}
	return out
}

// write stores the spans and the per-layer self times as one JSON file.
func (t *tracer) write(path, workload string, seed uint64) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	doc := struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		SelfMS   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{workload, seed, selfByName(spans), spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
