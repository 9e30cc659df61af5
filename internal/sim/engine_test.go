package sim

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run(100)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 100 {
		t.Errorf("Now() = %v, want 100", e.Now())
	}
}

func TestEngineTieBreakInsertionOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run(5)
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie-break order = %v", got)
		}
	}
}

func TestEngineRunUntilExcludesLater(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(100, func() { ran = true })
	e.Run(99)
	if ran {
		t.Fatal("event at t=100 ran with until=99")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run(100)
	if !ran {
		t.Fatal("event at t=100 did not run with until=100")
	}
}

func TestEngineSchedulePastClamps(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(50, func() {
		e.Schedule(10, func() { at = e.Now() }) // in the past
	})
	e.Run(1000)
	if at != 50 {
		t.Fatalf("past-scheduled event ran at %v, want 50", at)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var rec func()
	rec = func() {
		count++
		if count < 5 {
			e.After(10, rec)
		}
	}
	e.Schedule(0, rec)
	e.Run(1000)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 1000 {
		t.Fatalf("Now = %v, want 1000", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run(100)
	if count != 3 {
		t.Fatalf("count = %d, want 3 after Stop", count)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	tk := e.Tick(5, 10, func(now Time) { ticks = append(ticks, now) })
	e.Schedule(36, func() { tk.Cancel() })
	e.Run(1000)
	want := []Time{5, 15, 25, 35}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine().Tick(0, 0, func(Time) {})
}

// TestEngineRepeatMatchesEagerSchedule runs one scenario twice: once with
// a Repeat series, once with the n Schedule calls it stands for. Ticks,
// one-shots and nested After calls land on the series' timestamps, and the
// series starts in the past, so its first elements clamp to the present.
// Both runs must fire the same events in the same order at the same times
// and count the same Scheduled() total.
func TestEngineRepeatMatchesEagerSchedule(t *testing.T) {
	eager := func(e *Engine, start Time, period Duration, n int, fn func()) {
		for k := 0; k < n; k++ {
			e.Schedule(start+Time(k)*period, fn)
		}
	}
	run := func(repeat func(*Engine, Time, Duration, int, func())) ([]string, uint64) {
		e := NewEngine()
		var log []string
		rec := func(name string) func() {
			return func() { log = append(log, fmt.Sprintf("%s@%d", name, e.Now())) }
		}
		e.Schedule(20, rec("warm"))
		e.Run(20)
		tk := e.Tick(20, 5, func(Time) { rec("tick")() })
		e.Schedule(25, rec("a25"))
		k := 0
		// Starts 10 ns in the past: elements at 10 and 15 clamp to 20.
		repeat(e, 10, 5, 7, func() {
			rec(fmt.Sprintf("rep%d", k))()
			if k%2 == 0 {
				e.After(5, rec(fmt.Sprintf("after%d", k)))
			}
			k++
		})
		e.Schedule(30, rec("a30"))
		e.After(0, rec("now"))
		e.Schedule(45, func() { tk.Cancel() })
		e.RunAll()
		return log, e.Scheduled()
	}
	wantLog, wantSched := run(eager)
	gotLog, gotSched := run((*Engine).Repeat)
	if strings.Join(gotLog, " ") != strings.Join(wantLog, " ") {
		t.Fatalf("Repeat firing order\n got  %v\n want %v", gotLog, wantLog)
	}
	if gotSched != wantSched {
		t.Fatalf("Scheduled() = %d, eager loop gives %d", gotSched, wantSched)
	}
	if !strings.Contains(strings.Join(gotLog, " "), "rep0@20 rep1@20 rep2@20") {
		t.Fatalf("past elements did not clamp to the present: %v", gotLog)
	}
}

func TestEngineRepeatEdges(t *testing.T) {
	e := NewEngine()
	e.Repeat(5, 1, 0, func() { t.Fatal("empty Repeat fired") })
	if e.Scheduled() != 0 || e.Pending() != 0 {
		t.Fatalf("empty Repeat scheduled %d, pending %d", e.Scheduled(), e.Pending())
	}
	var fires int
	e.Repeat(0, 3, 1000, func() { fires++ })
	if e.Pending() != 1 || e.Scheduled() != 1000 {
		t.Fatalf("Repeat of 1000: pending %d, scheduled %d; want 1, 1000", e.Pending(), e.Scheduled())
	}
	e.RunAll()
	if fires != 1000 || e.Now() != 2997 || e.MaxPending() != 1 {
		t.Fatalf("fires %d at %v, max pending %d; want 1000 at 2997, 1", fires, e.Now(), e.MaxPending())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero period did not panic")
		}
	}()
	e.Repeat(0, 0, 1, func() {})
}

// TestEngineChainMatchesAfter runs one scenario twice: once with Chain
// sources, once with the callbacks whose last action is a trailing After
// that Chain stands for. The chains start in the past (clamped), schedule
// one-shots before re-arming (so the re-arm's seq must come after theirs),
// tie with other events, and end by returning !ok. Both runs must fire the
// same events at the same times and agree on Scheduled, MaxPending and
// Pending.
func TestEngineChainMatchesAfter(t *testing.T) {
	type source func(e *Engine, first Time, fn func() (Time, bool))
	trailingAfter := func(e *Engine, first Time, fn func() (Time, bool)) {
		var step func()
		step = func() {
			if next, ok := fn(); ok {
				e.Schedule(next, step)
			}
		}
		e.Schedule(first, step)
	}
	run := func(chain source) (string, uint64, int) {
		e := NewEngine()
		var log []string
		rec := func(name string) func() {
			return func() { log = append(log, fmt.Sprintf("%s@%d", name, e.Now())) }
		}
		e.Schedule(20, rec("warm"))
		e.Run(20)
		e.Tick(20, 5, func(Time) { rec("tick")() })
		for c := 0; c < 3; c++ {
			k := 0
			// Chain 0 starts in the past and clamps to 20.
			chain(e, Time(10+5*c), func() (Time, bool) {
				rec(fmt.Sprintf("c%d.%d", c, k))()
				if k%2 == c%2 {
					e.After(Duration(c), rec(fmt.Sprintf("s%d.%d", c, k)))
				}
				k++
				return e.Now() + Duration(3+c), k < 6+c
			})
		}
		e.Schedule(30, rec("a30"))
		e.Run(60)
		return strings.Join(log, " "), e.Scheduled(), e.MaxPending()*1000 + e.Pending()
	}
	wantLog, wantSched, wantPend := run(trailingAfter)
	gotLog, gotSched, gotPend := run((*Engine).Chain)
	if gotLog != wantLog {
		t.Fatalf("Chain firing order\n got  %v\n want %v", gotLog, wantLog)
	}
	if gotSched != wantSched || gotPend != wantPend {
		t.Fatalf("Chain: Scheduled %d, pending code %d; trailing After: %d, %d", gotSched, gotPend, wantSched, wantPend)
	}
	if !strings.Contains(gotLog, "warm@20 tick@20 c0.0@20") {
		t.Fatalf("past chain start did not clamp to the present: %v", gotLog)
	}
}

// TestEnginePendingInsideCallback pins the in-flight accounting: while a
// callback runs, its own event is no longer pending, whether the callback
// then schedules nothing, one event (which takes the firing entry's place
// in the heap) or several.
func TestEnginePendingInsideCallback(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(1, func() {
		got = append(got, e.Pending()) // 2 others wait
		e.After(5, func() {})
		got = append(got, e.Pending())
		e.After(6, func() {})
		got = append(got, e.Pending())
	})
	e.Schedule(2, func() { got = append(got, e.Pending()) })
	e.Schedule(3, func() { got = append(got, e.Pending()) })
	e.Run(3)
	want := []int{2, 3, 4, 3, 2}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Pending inside callbacks = %v, want %v", got, want)
	}
	if e.Pending() != 2 || e.MaxPending() != 4 {
		t.Fatalf("after run: pending %d, max %d; want 2, 4", e.Pending(), e.MaxPending())
	}
	ran := false
	e.Schedule(4, func() {
		e.Reset()
		if e.Pending() != 0 {
			t.Fatalf("Reset inside a callback left %d pending", e.Pending())
		}
		e.Schedule(1, func() { ran = true })
	})
	e.Run(10)
	if !ran || e.Pending() != 0 || e.Scheduled() != 1 {
		t.Fatalf("after Reset in callback: ran %v, pending %d, scheduled %d; want true, 0, 1", ran, e.Pending(), e.Scheduled())
	}
}

func TestEngineMaxPending(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run(2)
	e.Schedule(10, func() {})
	if e.Pending() != 3 || e.MaxPending() != 5 {
		t.Fatalf("pending %d, max %d; want 3, 5", e.Pending(), e.MaxPending())
	}
	e.Reset()
	if e.MaxPending() != 0 {
		t.Fatalf("Reset left MaxPending = %d", e.MaxPending())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500µs"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

// Property: events always execute in nondecreasing time order regardless of
// insertion order.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEngine()
		var times []Time
		for _, o := range offsets {
			at := Time(o)
			e.Schedule(at, func() { times = append(times, e.Now()) })
		}
		e.RunAll()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: streams with the same seed and name produce identical sequences;
// different names diverge.
func TestStreamDeterminismProperty(t *testing.T) {
	f := func(seed uint64) bool {
		a := NewStream(seed, "x")
		b := NewStream(seed, "x")
		c := NewStream(seed, "y")
		same, diff := true, false
		for i := 0; i < 16; i++ {
			av := a.Uint64()
			if av != b.Uint64() {
				same = false
			}
			if av != c.Uint64() {
				diff = true
			}
		}
		return same && diff
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamFloat64MatchesRand pins the Stream methods that draw straight
// from the PCG to the bits rand.Rand takes from the same source.
func TestStreamFloat64MatchesRand(t *testing.T) {
	s := NewStream(11, "direct")
	ref := rand.New(rand.NewPCG(11, NameHash("direct")))
	for i := 0; i < 100_000; i++ {
		switch i % 4 {
		case 0:
			if got, want := s.Float64(), ref.Float64(); got != want {
				t.Fatalf("draw %d: Float64 %v, rand.Rand %v", i, got, want)
			}
		case 1:
			p := float64(i%100) / 100
			if got, want := s.Bernoulli(p), ref.Float64() < p; got != want {
				t.Fatalf("draw %d: Bernoulli(%v) %v, rand.Rand %v", i, p, got, want)
			}
		case 2:
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("draw %d: Uint64 %#x, rand.Rand %#x", i, got, want)
			}
		case 3:
			if got, want := s.Uniform(-2, 5), -2+7*ref.Float64(); got != want {
				t.Fatalf("draw %d: Uniform %v, rand.Rand %v", i, got, want)
			}
		}
	}
}

func TestStreamDistributions(t *testing.T) {
	s := NewStream(42, "dist")
	n := 20000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := s.Normal(10, 2)
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	if mean < 9.9 || mean > 10.1 {
		t.Errorf("normal mean = %v, want ~10", mean)
	}
	variance := sum2/float64(n) - mean*mean
	if variance < 3.5 || variance > 4.5 {
		t.Errorf("normal variance = %v, want ~4", variance)
	}

	var psum int
	for i := 0; i < n; i++ {
		psum += s.Poisson(3)
	}
	pmean := float64(psum) / float64(n)
	if pmean < 2.8 || pmean > 3.2 {
		t.Errorf("poisson mean = %v, want ~3", pmean)
	}

	// Large-mean Poisson takes the normal-approximation path.
	var lsum int
	for i := 0; i < n; i++ {
		lsum += s.Poisson(100)
	}
	lmean := float64(lsum) / float64(n)
	if lmean < 98 || lmean > 102 {
		t.Errorf("poisson(100) mean = %v, want ~100", lmean)
	}

	var esum float64
	for i := 0; i < n; i++ {
		esum += s.Exp(5)
	}
	emean := esum / float64(n)
	if emean < 4.8 || emean > 5.2 {
		t.Errorf("exp mean = %v, want ~5", emean)
	}
}

func TestStreamDurHelpers(t *testing.T) {
	s := NewStream(1, "dur")
	for i := 0; i < 1000; i++ {
		d := s.DurUniform(10, 20)
		if d < 10 || d >= 20 {
			t.Fatalf("DurUniform out of range: %v", d)
		}
	}
	if d := s.DurUniform(20, 10); d != 20 {
		t.Fatalf("DurUniform inverted range = %v, want lo", d)
	}
	for i := 0; i < 1000; i++ {
		d := s.DurLogNormal(1000, 0.5, 500, 5000)
		if d < 500 || d > 5000 {
			t.Fatalf("DurLogNormal out of clamp: %v", d)
		}
	}
	for i := 0; i < 100; i++ {
		if d := s.DurExp(1000); d < 1 {
			t.Fatalf("DurExp below 1ns: %v", d)
		}
	}
	if s.Poisson(0) != 0 {
		t.Fatal("Poisson(0) != 0")
	}
}

// TestSteadyStateAllocFree is the engine's allocation guard: once the
// heap and slot slab have grown to their working size, ticker, Repeat and
// Chain re-arms and one-shot schedule/fire cycles must not allocate at all. The
// slab-backed queue's speed depends on this invariant and the obs layer's
// overhead contract assumes it (events are counted by reading
// Scheduled/Processed after a run, never by per-event hooks), so a
// regression fails the suite instead of silently showing up in
// benchmarks.
func TestSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	var ticks int
	e.Tick(0, 10, func(Time) { ticks++ })
	var fires int
	var rearm func()
	rearm = func() {
		fires++
		e.After(7, rearm)
	}
	e.Schedule(3, rearm)
	var reps int
	e.Repeat(1, 13, 1<<30, func() { reps++ })
	var links int
	e.Chain(5, func() (Time, bool) {
		links++
		return e.Now() + 11, true
	})
	horizon := Time(0)
	step := func() {
		horizon += 1000
		e.Run(horizon)
	}
	step() // warm up: grow heap, slab, and free list to steady state
	allocs := testing.AllocsPerRun(100, step)
	if allocs != 0 {
		t.Fatalf("steady-state engine allocated %.1f times per run, want 0", allocs)
	}
	if ticks == 0 || fires == 0 || reps == 0 || links == 0 {
		t.Fatal("guard workload did not run")
	}
	if e.Scheduled() == 0 || e.Processed == 0 {
		t.Fatal("Scheduled/Processed counters did not advance")
	}
}

func TestEngineScheduledCounter(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	if got := e.Scheduled(); got != 2 {
		t.Fatalf("Scheduled = %d, want 2", got)
	}
	e.RunAll()
	if got := e.Processed; got != 2 {
		t.Fatalf("Processed = %d, want 2", got)
	}
	e.Reset()
	if e.Scheduled() != 0 || e.Processed != 0 {
		t.Fatal("Reset did not clear counters")
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j%97), func() {})
		}
		e.RunAll()
	}
}

func TestStreamForkIndependence(t *testing.T) {
	parent := NewStream(5, "parent")
	child := parent.Fork("child")
	// Drawing from the child must not perturb the parent's sequence.
	parent2 := NewStream(5, "parent")
	_ = parent2.Fork("child")
	for i := 0; i < 8; i++ {
		child.Uint64()
	}
	for i := 0; i < 8; i++ {
		if parent.Uint64() != parent2.Uint64() {
			t.Fatal("child draws perturbed the parent stream")
		}
	}
}

func TestStreamPermShuffle(t *testing.T) {
	s := NewStream(6, "perm")
	p := s.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
	xs := []int{1, 2, 3, 4, 5}
	sum := 0
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 15 {
		t.Fatal("shuffle lost elements")
	}
	if s.Bernoulli(0) || !s.Bernoulli(1) {
		t.Fatal("Bernoulli extremes")
	}
	if v := s.Uniform(3, 3); v != 3 {
		t.Fatalf("degenerate uniform = %v", v)
	}
	if s.IntN(1) != 0 || s.Int64N(1) != 0 {
		t.Fatal("IntN(1)")
	}
	lg := s.LogNormal(0, 0)
	if lg != 1 {
		t.Fatalf("LogNormal(0,0) = %v", lg)
	}
}
