package core

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"testing"

	"repro/internal/attack"
	"repro/internal/browser"
	"repro/internal/clockface"
	"repro/internal/defense"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// hashDataset folds every byte of a dataset that experiments depend on into
// one FNV-64a value: class count, then per trace the domain, label, attack
// name, period, and the exact bit pattern of every sample.
func hashDataset(ds *trace.Dataset) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(ds.NumClasses))
	for _, tr := range ds.Traces {
		io.WriteString(h, tr.Domain)
		io.WriteString(h, tr.Attack)
		put(uint64(tr.Label))
		put(uint64(tr.Period))
		put(uint64(len(tr.Values)))
		for _, v := range tr.Values {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// collectDatasetForTest bypasses the in-process dataset cache so both
// collections below genuinely re-simulate every trace.
func collectDatasetForTest(scn Scenario, sc Scale) (*trace.Dataset, error) {
	ds, _, err := collectDataset(scn, sc, nil, nil)
	return ds, err
}

// goldenScale is the grid's dataset size: small enough to run in seconds,
// large enough to cover closed- and open-world labeling and several visits.
var goldenScale = Scale{Sites: 3, TracesPerSite: 2, OpenWorld: 2, Folds: 2, Seed: 11}

// goldenGrid covers every major simulation path: both attacks, three OS
// personalities, Tor circuits, the slot-indexed randomized-timer attacker,
// the full isolation ladder, and all three noise countermeasures.
func goldenGrid() []Scenario {
	short := 2 * sim.Second
	return []Scenario{
		{Name: "golden/chrome-linux-loop", OS: kernel.Linux, Browser: browser.Chrome,
			Attack: LoopCounting, TraceDuration: short},
		{Name: "golden/chrome-linux-sweep", OS: kernel.Linux, Browser: browser.Chrome,
			Attack: SweepCounting, TraceDuration: short},
		{Name: "golden/firefox-windows-loop", OS: kernel.Windows, Browser: browser.Firefox,
			Attack: LoopCounting, TraceDuration: short},
		{Name: "golden/tor-linux-loop", OS: kernel.Linux, Browser: browser.TorBrowser,
			Attack: LoopCounting, TraceDuration: short},
		{Name: "golden/python-randomized", OS: kernel.Linux, Browser: browser.Chrome,
			Attack: LoopCounting, Variant: attack.Python, TraceDuration: short,
			Timer: func(seed uint64) clockface.Timer {
				return defense.RandomizedTimer(sim.NewStream(seed, "rnd-timer"))
			}},
		{Name: "golden/isolation-ladder", OS: kernel.Linux, Browser: browser.Chrome,
			Attack: LoopCounting, Variant: attack.Python, TraceDuration: short,
			Timer: func(uint64) clockface.Timer { return clockface.Python() },
			Isolation: kernel.Isolation{
				FixedFreqGHz: 2.4, PinCores: true, RemoveIRQs: true, SeparateVMs: true,
			}},
		{Name: "golden/noise-everything", OS: kernel.MacOS, Browser: browser.Safari,
			Attack: SweepCounting, TraceDuration: short,
			BackgroundNoise: true, InterruptNoise: true, CacheNoise: true},
	}
}

// goldenHashes pins the exact dataset bytes for the grid above. Any engine
// or machine-lifecycle change must reproduce these bit-identically.
//
// Provenance: the seed implementation (commit 1e0be33) set the first
// values, and every engine rewrite since reproduced them. They were
// re-pinned once, when interrupt-handler durations moved from the exact
// log-normal draw (sim.Stream.DurLogNormal, math.Exp per delivery) to the
// inverse-CDF table sampler (sim.LogNormalTable). That change alters the
// random streams by design: the table takes exactly one Uint64 per draw,
// where the normal variate takes a variable number. Bit-identity to the
// old draw is replaced by the statistical gate
// interrupt.TestHandlerSamplerFidelity; restoring the exact draw in
// interrupt's sampleDuration brings the seed values back.
var goldenHashes = map[string]uint64{
	"golden/chrome-linux-loop":    0x0879791b771d5b36,
	"golden/chrome-linux-sweep":   0xf63ab6fb51912cdf,
	"golden/firefox-windows-loop": 0xe5bab677020350c1,
	"golden/tor-linux-loop":       0x068bc6a482dbba6f,
	"golden/python-randomized":    0x8a74da65fd4d1a99,
	"golden/isolation-ladder":     0x3509666d289acc0b,
	"golden/noise-everything":     0xc4ac8d436029da98,
}

// TestGoldenDeterminism asserts that the simulated datasets for the golden
// grid are byte-identical to the pre-rewrite implementation, at both serial
// and fully parallel collection.
func TestGoldenDeterminism(t *testing.T) {
	for _, scn := range goldenGrid() {
		scn := scn
		t.Run(scn.Name, func(t *testing.T) {
			serial := goldenScale
			serial.Parallelism = 1
			ds1, err := collectDatasetForTest(scn, serial)
			if err != nil {
				t.Fatal(err)
			}
			h1 := hashDataset(ds1)

			parallel := goldenScale
			// At least 4 workers so single-core hosts still exercise the
			// multi-worker path (worker interleaving, slot contention).
			parallel.Parallelism = max(4, runtime.NumCPU())
			dsN, err := collectDatasetForTest(scn, parallel)
			if err != nil {
				t.Fatal(err)
			}
			if hN := hashDataset(dsN); hN != h1 {
				t.Fatalf("parallel collection diverged: par=1 %#x, par=%d %#x",
					h1, parallel.Parallelism, hN)
			}
			want, ok := goldenHashes[scn.Name]
			if !ok {
				t.Fatalf("no golden hash recorded for %s (got %#x)", scn.Name, h1)
			}
			if h1 != want {
				t.Fatalf("dataset bytes changed: got %#x, golden %#x", h1, want)
			}
		})
	}
}

// maxGoldenPending bounds the event-queue depth of any golden-grid trace.
// Lazily re-armed sources (tickers, Poisson chains, one Repeat per pulse
// for page-load memory chunks) keep the queue a few dozen deep; queuing
// every chunk of every pulse up front instead reaches about a thousand.
const maxGoldenPending = 256

// TestGoldenHeapDepth is the regression gate for event-queue bloat: it
// collects the golden grid and reads the core.sim.pending_max high-water
// back from the manifest's "sim" section.
func TestGoldenHeapDepth(t *testing.T) {
	gSimPendingMax.Set(0)
	sc := goldenScale
	sc.Parallelism = 1
	for _, scn := range goldenGrid() {
		if _, err := collectDatasetForTest(scn, sc); err != nil {
			t.Fatal(err)
		}
	}
	depth := ManifestSections(0)["sim"].(map[string]any)["pending_max"].(int64)
	t.Logf("golden grid event-queue high-water: %d", depth)
	if depth <= 0 || depth >= maxGoldenPending {
		t.Fatalf("sim pending_max = %d, want in (0, %d)", depth, maxGoldenPending)
	}
}

// TestGoldenIRQHandlerCount checks that the golden grid reports its
// interrupt-handler executions, one handler-duration draw each, in the
// manifest's "sim" section. Counters only grow, so the grid's share is the
// difference across its collection.
func TestGoldenIRQHandlerCount(t *testing.T) {
	handlers := func() int64 {
		return ManifestSections(0)["sim"].(map[string]any)["irq_handlers"].(int64)
	}
	before := handlers()
	sc := goldenScale
	sc.Parallelism = 1
	for _, scn := range goldenGrid() {
		if _, err := collectDatasetForTest(scn, sc); err != nil {
			t.Fatal(err)
		}
	}
	n := handlers() - before
	t.Logf("golden grid interrupt handlers: %d", n)
	if n <= 0 {
		t.Fatalf("sim irq_handlers = %d, want > 0", n)
	}
}
