package interrupt

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/sim"
)

// exactDuration is the reference handler-duration draw the table sampler
// replaces: the spec's clamped log-normal evaluated with math.Exp.
func exactDuration(rng *sim.Stream, t Type) sim.Duration {
	s := specs[t]
	return rng.DurLogNormal(s.Median, s.Sigma, s.Min, s.Max)
}

// TestHandlerSamplerFidelity is the statistical gate for the table sampler:
// for every interrupt type, 2^20 table draws and 2^20 exact draws must pass
// a two-sample Kolmogorov-Smirnov test at α = 0.001, agree on p1, p50 and
// p99 within 1%, and stay inside the spec's [Min, Max].
func TestHandlerSamplerFidelity(t *testing.T) {
	const n = 1 << 20
	// Two-sample KS critical value c(α)·√((n+m)/(n·m)) at α = 0.001.
	crit := math.Sqrt(-math.Log(0.001/2)/2) * math.Sqrt(2.0/n)
	for ty := Type(0); ty < NumTypes; ty++ {
		s := SpecOf(ty)
		tab := handlerTables()[ty]
		// Durations are whole nanoseconds inside [Min, Max], so a count per
		// value gives both empirical CDFs with ties grouped per distinct
		// value.
		width := int(s.Max-s.Min) + 1
		exact, table := make([]int, width), make([]int, width)
		re, rt := sim.NewStream(1, "exact-"+s.Name), sim.NewStream(1, "table-"+s.Name)
		for i := 0; i < n; i++ {
			for _, draw := range [...]struct {
				d      sim.Duration
				counts []int
			}{{exactDuration(re, ty), exact}, {tab.Sample(rt), table}} {
				if draw.d < s.Min || draw.d > s.Max {
					t.Fatalf("%v: draw %v outside [%v, %v]", ty, draw.d, s.Min, s.Max)
				}
				draw.counts[draw.d-s.Min]++
			}
		}
		var d float64
		var ce, ct int
		qs := [...]float64{0.01, 0.5, 0.99}
		var qe, qt [len(qs)]sim.Duration
		for v := 0; v < width; v++ {
			pe, pt := ce, ct
			ce += exact[v]
			ct += table[v]
			d = math.Max(d, math.Abs(float64(ce-ct))/n)
			for k, q := range qs {
				if at := int(q * n); pe < at && ce >= at {
					qe[k] = s.Min + sim.Duration(v)
				}
				if at := int(q * n); pt < at && ct >= at {
					qt[k] = s.Min + sim.Duration(v)
				}
			}
		}
		t.Logf("%-16v KS D = %.5f (critical %.5f)  p1 %v/%v  p50 %v/%v  p99 %v/%v (exact/table)",
			ty, d, crit, qe[0], qt[0], qe[1], qt[1], qe[2], qt[2])
		if d >= crit {
			t.Errorf("%v: KS D = %.5f, critical value %.5f", ty, d, crit)
		}
		for k, q := range qs {
			if math.Abs(float64(qt[k]-qe[k])) > 0.01*float64(qe[k]) {
				t.Errorf("%v: p%g table %v, exact %v: more than 1%% apart", ty, 100*q, qt[k], qe[k])
			}
		}
	}
}

// TestHandlerTablesShared has controllers on several goroutines draw from
// the shared tables at once, the first draw included: each must see the
// sequence a lone controller draws. Run it under -race.
func TestHandlerTablesShared(t *testing.T) {
	const draws = 10000
	seq := func() []sim.Duration {
		_, _, ctl := newRig(2, DefaultConfig())
		out := make([]sim.Duration, draws)
		for i := range out {
			out[i] = ctl.sampleDuration(Type(i) % NumTypes)
		}
		return out
	}
	const workers = 4
	got := make([][]sim.Duration, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = seq()
		}()
	}
	wg.Wait()
	want := seq()
	for w, g := range got {
		if !slices.Equal(g, want) {
			t.Fatalf("worker %d drew a different sequence", w)
		}
	}
}

// BenchmarkSampleDuration times one handler-duration draw in situ, where
// each draw's result decides what happens next. Here it picks the type of
// the next draw, so every draw waits for the one before and the benchmark
// measures latency, not throughput. exact is the math.Exp draw the table
// replaced.
func BenchmarkSampleDuration(b *testing.B) {
	_, _, ctl := newRig(4, DefaultConfig())
	var next [16]Type
	for i := range next {
		next[i] = Type(i) % NumTypes
	}
	b.Run("exact", func(b *testing.B) {
		var d sim.Duration
		for i := 0; i < b.N; i++ {
			d = exactDuration(ctl.rng, next[d&15])
		}
		sinkDuration = d
	})
	b.Run("table", func(b *testing.B) {
		var d sim.Duration
		for i := 0; i < b.N; i++ {
			d = ctl.sampleDuration(next[d&15])
		}
		sinkDuration = d
	})
}

var sinkDuration sim.Duration
