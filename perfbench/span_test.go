package main

import (
	"testing"
	"time"
)

func TestSelfTimeNestedSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "cell", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "collect", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "collect", Start: 20 * ms, End: 50 * ms},   // overlaps 2
		{ID: 4, Parent: 1, Name: "evaluate", Start: 90 * ms, End: 120 * ms}, // runs past its parent
		{ID: 5, Parent: 2, Name: "fit", Start: 12 * ms, End: 18 * ms},
	}
	self := SelfTimes(spans)
	want := map[int]time.Duration{
		1: 100*ms - 40*ms - 10*ms, // children cover [10,50] and [90,100]
		2: 20*ms - 6*ms,           // its own child only; grandchildren don't reach the cell
		3: 30 * ms,
		4: 30 * ms,
		5: 6 * ms,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
	tot := Totals(spans)
	if c := tot["collect"]; c.N != 2 || c.Wall != 50*ms || c.Self != 44*ms {
		t.Errorf("collect totals = %+v", c)
	}
}

// fakeClocks drives a tracer from hand-set CPU and counter readings.
type fakeClocks struct {
	cpu      time.Duration
	counters map[string]int64
}

func newFakeTracer(f *fakeClocks) *Tracer {
	return &Tracer{
		run: "test", t0: time.Now(),
		cpu: func() time.Duration { return f.cpu },
		counters: func() map[string]int64 {
			out := make(map[string]int64, len(f.counters))
			for k, v := range f.counters {
				out[k] = v
			}
			return out
		},
	}
}

func TestCPUAndCounterDeltaAttribution(t *testing.T) {
	f := &fakeClocks{cpu: 7 * time.Second, counters: map[string]int64{"core.sim.events_processed": 100}}
	tr := newFakeTracer(f)
	cell := tr.Start(nil, "cell")
	f.cpu += 5 * time.Second
	col := tr.Start(cell, "collect")
	f.cpu += 3 * time.Second
	f.counters["core.sim.events_processed"] += 40
	col.Count("traces", 8)
	col.End()
	f.cpu += 2 * time.Second
	f.counters["core.sim.events_processed"] += 2
	cell.End()

	spans := tr.Spans()
	if spans[0].CPU != 10*time.Second || spans[1].CPU != 3*time.Second {
		t.Fatalf("CPU deltas cell=%v collect=%v, want 10s and 3s", spans[0].CPU, spans[1].CPU)
	}
	if spans[1].Parent != spans[0].ID {
		t.Errorf("collect parent = %d, want %d", spans[1].Parent, spans[0].ID)
	}
	if got := spans[1].Counters["core.sim.events_processed"]; got != 40 {
		t.Errorf("collect events = %d, want 40", got)
	}
	if got := spans[0].Counters["core.sim.events_processed"]; got != 42 {
		t.Errorf("cell events = %d, want 42", got)
	}
	if got := spans[1].Counters["bench.traces"]; got != 8 {
		t.Errorf("collect traces = %d, want 8", got)
	}
	if _, ok := spans[0].Counters["bench.traces"]; ok {
		t.Error("a child's count leaked into its parent")
	}
}

func TestCounterDeltaMissingIsAbsent(t *testing.T) {
	before := map[string]int64{"a": 1}
	if d, ok := counterDelta(before, map[string]int64{"a": 5}, "a"); !ok || d != 4 {
		t.Errorf("delta = %d, %v; want 4, true", d, ok)
	}
	if _, ok := counterDelta(before, map[string]int64{"b": 5}, "a"); ok {
		t.Error("a counter missing from the snapshot must be reported absent")
	}
	if d, ok := counterDelta(map[string]int64{}, map[string]int64{"c": 3}, "c"); !ok || d != 3 {
		t.Errorf("new counter delta = %d, %v; want 3, true", d, ok)
	}
}

func TestProcessCPUCountsWork(t *testing.T) {
	tr := NewTracer("burn")
	sp := tr.Start(nil, "burn")
	x := 1.0
	for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); {
		x = x*1.0000001 + 1e-9
	}
	sp.End()
	if x == 0 {
		t.Log(x)
	}
	if s := tr.Spans()[0]; s.CPU < 10*time.Millisecond {
		t.Errorf("50ms of busy work recorded %v CPU", s.CPU)
	}
}
