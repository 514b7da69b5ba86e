package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 0, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Op: 0, Name: "b", Start: 20, End: 50}, // overlaps a
		{ID: 4, Parent: 1, Op: 0, Name: "a", Start: 60, End: 70},
		{ID: 5, Parent: 3, Op: 0, Name: "c", Start: 25, End: 45},
		{ID: 6, Parent: 1, Op: 0, Name: "late", Start: 95, End: 120}, // clipped to the parent
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 100 - (40 + 10 + 5), 2: 20, 3: 10, 4: 10, 5: 20, 6: 25}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-9 {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if got := byName["a"]; math.Abs(got-0.030) > 1e-12 {
		t.Errorf("self time of layer a = %v ms, want 0.030", got)
	}
}

func TestOpCoverageJudgesAnOpOnItsBestRep(t *testing.T) {
	// Two reps of a two-op list. Op 1 is preempted between its children in
	// the first rep only; op 0 is covered in both.
	var spans []span
	add := func(op int, start, childEnd, end float64) {
		id := len(spans) + 1
		spans = append(spans,
			span{ID: id, Op: op, Name: "op", Start: start, End: end},
			span{ID: id + 1, Parent: id, Op: op, Name: "child", Start: start, End: childEnd})
	}
	add(0, 0, 99, 100)
	add(1, 100, 150, 200)
	add(2, 200, 299, 300)
	add(3, 300, 398, 400)
	worst, ops := opCoverage(spans, 2)
	if ops != 2 || math.Abs(worst-0.98) > 1e-9 {
		t.Errorf("coverage %v over %d ops, want 0.98 over 2", worst, ops)
	}
	// A decomposed op is a single sample and is judged as it is.
	spans = append(spans,
		span{ID: 9, Op: decomposedOpBase, Name: "eval.decomposed", Start: 0, End: 100},
		span{ID: 10, Parent: 9, Op: decomposedOpBase, Name: "nn.train", Start: 0, End: 60})
	if worst, ops = opCoverage(spans, 2); ops != 3 || math.Abs(worst-0.6) > 1e-9 {
		t.Errorf("coverage %v over %d ops, want 0.6 over 3", worst, ops)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 0)
	tr.end(id)
	tr.value("v", 1)
	if id != 0 || tr.add("y", 0, 0, time.Now(), time.Now()) != 0 {
		t.Error("a nil tracer handed out span ids")
	}
}

func TestTracerKeepsParentAndOp(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 0, 3)
	kid := tr.begin("layer", root, 3)
	tr.end(kid)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Op != 3 {
		t.Fatalf("spans %+v", tr.spans)
	}
	if tr.spans[0].End < tr.spans[1].End || tr.spans[1].Start < tr.spans[0].Start {
		t.Errorf("child [%v,%v] not inside parent [%v,%v]", tr.spans[1].Start, tr.spans[1].End, tr.spans[0].Start, tr.spans[0].End)
	}
	if d := tr.durations("layer"); len(d) != 1 || d[0] < 0 {
		t.Errorf("durations %v", d)
	}
}
