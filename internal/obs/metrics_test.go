package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestRegistryConcurrency hammers get-or-create and every metric op from
// many goroutines; run under -race this is the registry's thread-safety
// proof, and the final values prove no update was lost.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const iters = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Get-or-create races: every worker looks the metrics up
				// fresh each iteration.
				r.Counter("c").Inc()
				r.Counter(fmt.Sprintf("c.%d", w)).Add(2)
				r.Gauge("g").Add(1)
				r.Gauge("g").Add(-1)
				r.Gauge("hw").Max(int64(w*iters + i))
				r.FloatGauge("f").Set(float64(i))
				r.Histogram("h", 1, 10, 100).Observe(float64(i % 150))
			}
		}(w)
	}
	wg.Wait()

	if got := r.Counter("c").Value(); got != workers*iters {
		t.Errorf("counter c = %d, want %d", got, workers*iters)
	}
	for w := 0; w < workers; w++ {
		if got := r.Counter(fmt.Sprintf("c.%d", w)).Value(); got != 2*iters {
			t.Errorf("counter c.%d = %d, want %d", w, got, 2*iters)
		}
	}
	if got := r.Gauge("g").Value(); got != 0 {
		t.Errorf("gauge g = %d, want 0 (balanced adds)", got)
	}
	if got := r.Gauge("hw").Value(); got != workers*iters-1 {
		t.Errorf("gauge hw = %d, want the largest folded value %d", got, workers*iters-1)
	}
	h := r.Histogram("h")
	if got := h.Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
	// Sum is CAS-accumulated: every worker observes 0..149 repeated, so
	// the exact total is known.
	perWorker := 0.0
	for i := 0; i < iters; i++ {
		perWorker += float64(i % 150)
	}
	if got := h.Sum(); math.Abs(got-workers*perWorker) > 1e-6 {
		t.Errorf("histogram sum = %v, want %v", got, workers*perWorker)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 1, 10, 100)
	for _, v := range []float64{0.5, 1, 5, 10, 99, 100, 1000} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["lat"]
	// Buckets are (prev, bound]: SearchFloat64s returns the first index
	// with bounds[i] >= v, so exact-bound values land in their own bucket.
	want := []int64{2, 2, 2, 1} // (-inf,1] (1,10] (10,100] (100,+inf)
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Fatalf("bucket counts = %v, want %v", snap.Counts, want)
		}
	}
	if snap.Count != 7 {
		t.Errorf("count = %d, want 7", snap.Count)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(3)
	r.Gauge("b.gauge").Set(-5)
	r.FloatGauge("c.float").Set(1.5)
	r.Histogram("d.hist", 1, 2).Observe(1.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["a.count"] != 3 || snap.Gauges["b.gauge"] != -5 || snap.Gauges["c.float"] != 1.5 {
		t.Errorf("round-trip mismatch: %+v", snap)
	}
	if h := snap.Histograms["d.hist"]; h.Count != 1 || h.Counts[1] != 1 {
		t.Errorf("histogram round-trip mismatch: %+v", snap.Histograms)
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	h := r.Histogram("y", 5)
	h.Observe(3)
	r.Reset()
	if c.Value() != 0 {
		t.Error("counter survived Reset")
	}
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("histogram survived Reset")
	}
	// Cached pointers stay live after Reset.
	c.Inc()
	if r.Counter("x").Value() != 1 {
		t.Error("cached counter pointer detached after Reset")
	}
}

// TestNilMetricsSafe: every metric method must be callable on nil so
// instrument sites need no guards.
func TestNilMetricsSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var f *FloatGauge
	var h *Histogram
	var r *Registry
	c.Inc()
	c.Add(1)
	_ = c.Value()
	g.Set(1)
	g.Add(1)
	g.Max(1)
	_ = g.Value()
	f.Set(1)
	_ = f.Value()
	h.Observe(1)
	_ = h.Count()
	_ = h.Sum()
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x", 1).Observe(1)
	r.Reset()
	_ = r.Snapshot()
}
