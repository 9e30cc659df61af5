package sim

import "testing"

// BenchmarkEngine measures steady-state event throughput: a mix of periodic
// tickers and self-rearming one-shot chains, the same shape as a machine's
// timer ticks plus Poisson interrupt streams. Reported as ns per processed
// event; allocs/op is the headline the slab-backed queue optimizes.
func BenchmarkEngine(b *testing.B) {
	e := NewEngine()
	// 8 tickers at mutually prime-ish periods keep the queue busy.
	for _, p := range []Duration{7, 11, 13, 17, 19, 23, 29, 31} {
		e.Tick(0, p, func(Time) {})
	}
	// 8 self-rearming chains model the recursive After() interrupt sources.
	for i := 0; i < 8; i++ {
		gap := Duration(5 + i)
		var step func()
		step = func() { e.After(gap, step) }
		e.After(gap, step)
	}
	benchEngineRun(b, e)
}

// BenchmarkEngineChain is BenchmarkEngine with its self-rearming chains
// written as Chain sources, the form the simulator's interrupt streams
// take: each chain keeps one slab slot, and each re-arm replaces the
// firing entry at the heap root.
func BenchmarkEngineChain(b *testing.B) {
	e := NewEngine()
	for _, p := range []Duration{7, 11, 13, 17, 19, 23, 29, 31} {
		e.Tick(0, p, func(Time) {})
	}
	for i := 0; i < 8; i++ {
		gap := Duration(5 + i)
		e.Chain(gap, func() (Time, bool) { return e.Now() + gap, true })
	}
	benchEngineRun(b, e)
}

// BenchmarkEngineChurn measures transient behaviour: building a fresh queue
// of 1024 events and draining it, per iteration.
func BenchmarkEngineChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1024; j++ {
			e.Schedule(Time(j%97), func() {})
		}
		e.RunAll()
	}
}

// deepHeapOneShots is the queue depth BenchmarkEngineDeepHeap holds: the
// pending-event count of a page-load run that queues every 5 ms memory
// chunk of every pulse up front.
const deepHeapOneShots = 10000

// BenchmarkEngineDeepHeap measures event throughput with ~10k one-shots
// pending beside the tickers and interrupt chains of BenchmarkEngine. Each
// one-shot re-schedules itself a full lap ahead, so the queue stays at that
// depth and every push and pop pays for it. Compare BenchmarkEngineRepeat.
func BenchmarkEngineDeepHeap(b *testing.B) {
	e := NewEngine()
	for _, p := range []Duration{7, 11, 13, 17, 19, 23, 29, 31} {
		e.Tick(0, p, func(Time) {})
	}
	const lap = deepHeapOneShots * 5
	for i := 0; i < deepHeapOneShots; i++ {
		var step func()
		step = func() { e.After(lap, step) }
		e.Schedule(Time(i*5), step)
	}
	benchEngineRun(b, e)
}

// BenchmarkEngineRepeat is the shape BenchmarkEngineDeepHeap turns into
// when the one-shots are Repeat series: the same tickers plus 64 long
// series at 5 ns spacing, each holding one pending element, so the queue
// stays shallow and re-arming allocates nothing.
func BenchmarkEngineRepeat(b *testing.B) {
	e := NewEngine()
	for _, p := range []Duration{7, 11, 13, 17, 19, 23, 29, 31} {
		e.Tick(0, p, func(Time) {})
	}
	for i := 0; i < 64; i++ {
		e.Repeat(Time(i), 5*64, 1<<40, func() {})
	}
	benchEngineRun(b, e)
}

// benchEngineRun drives e for b.N processed events after the set-up and
// reports the queue's high-water depth next to ns/op.
func benchEngineRun(b *testing.B, e *Engine) {
	b.ReportAllocs()
	b.ResetTimer()
	start := e.Processed
	for e.Processed-start < uint64(b.N) {
		e.Run(e.Now() + 4096)
	}
	b.ReportMetric(float64(e.MaxPending()), "pending_max")
}
