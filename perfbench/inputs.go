package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/website"
)

// Every input the program receives is generated here from the workload
// seed: the same seed always yields the same scales, scenarios, sites,
// request order and arrival schedule.

// mix derives an independent 64-bit stream value from (seed, k)
// (splitmix64 finalizer).
func mix(seed, k uint64) uint64 {
	z := seed + (k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rng is a small deterministic generator for schedules and shuffles.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s, 0)
}

// float returns a uniform value in (0, 1].
func (r *rng) float() float64 { return (float64(r.next()>>11) + 1) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// smallScale is cmd/experiments' "-scale small" with the given seed.
func smallScale(seed uint64) core.Scale {
	return core.Scale{Sites: 10, TracesPerSite: 8, OpenWorld: 20, Folds: 4, Seed: seed}
}

// gridCell is one paper-grid cell and its paper reference (0 = none):
// closed-world top-1, or combined accuracy for open-world cells.
type gridCell struct {
	Spec  core.CellSpec
	Paper float64
}

// paperGrid is the fixed subset of Tables 1–4 and §4.2 the paper-grid
// workload runs: it keeps every browser (Chrome, Firefox, Safari, Tor),
// every OS (Linux, Windows, macOS), both attack kinds, every isolation
// mechanism (all four in the cumulative Table 3 step), every timer family
// (browser default, Python, jittered, quantized, randomized), one Table 2
// noise source, the §4.2 background-noise cell and one open-world cell.
// All cells use the default classifier and the default inference tier,
// named in the spec.
func paperGrid(seed uint64) []gridCell {
	sc := smallScale(seed)
	closed := sc
	closed.OpenWorld = 0
	t1 := func(browser, os, attack, world string, paper float64) gridCell {
		scale := closed
		if world == "open" {
			scale = sc
		}
		return gridCell{Spec: core.CellSpec{
			Scenario: core.ScenarioSpec{
				Name: fmt.Sprintf("t1/%s/%s/%s/%s", browser, os, attack, world),
				OS:   os, Browser: browser, Attack: attack,
			},
			Scale: scale,
		}, Paper: paper}
	}
	python := func(name string, mod func(*core.ScenarioSpec), paper float64) gridCell {
		s := core.ScenarioSpec{Name: name, OS: "linux", Browser: "chrome", Attack: "loop", Variant: "python"}
		mod(&s)
		return gridCell{Spec: core.CellSpec{Scenario: s, Scale: closed}, Paper: paper}
	}
	t4 := core.PaperTable4
	cells := []gridCell{
		t1("chrome", "linux", "loop", "closed", paperTable1("chrome", "linux").ClosedLoop),
		t1("firefox", "windows", "sweep", "closed", paperTable1("firefox", "windows").ClosedCache),
		t1("safari", "macos", "loop", "closed", paperTable1("safari", "macos").ClosedLoop),
		t1("tor", "linux", "sweep", "open", paperTable1("tor", "linux").OpenCacheCombined),
		{Spec: core.CellSpec{Scenario: core.ScenarioSpec{
			Name: "t2/sweep-counting/cache-sweep", OS: "linux", Browser: "chrome",
			Attack: "sweep", CacheNoise: true,
		}, Scale: closed}, Paper: core.PaperTable2[core.SweepCounting]["cache-sweep"]},
		python("t3/4-all-isolation", func(s *core.ScenarioSpec) {
			s.Timer = "python"
			s.FixedFreqGHz, s.PinCores, s.RemoveIRQs, s.SeparateVMs = 2.4, true, true, true
		}, core.PaperTable3[len(core.PaperTable3)-1].Top1),
		python("t4/0-jittered-P5ms", func(s *core.ScenarioSpec) { s.Timer, s.PeriodMS = "jittered:0.1", 5 }, t4[0].Top1),
		python("t4/1-quantized-P5ms", func(s *core.ScenarioSpec) { s.Timer, s.PeriodMS = "quantized:100", 5 }, t4[1].Top1),
		python("t4/2-randomized-P5ms", func(s *core.ScenarioSpec) { s.Timer, s.PeriodMS = "randomized", 5 }, t4[2].Top1),
		{Spec: core.CellSpec{Scenario: core.ScenarioSpec{
			Name: "bgnoise/slack-spotify", OS: "linux", Browser: "chrome", Attack: "loop",
			BackgroundNoise: true,
		}, Scale: closed}},
	}
	for i := range cells {
		cells[i].Spec.Classifier = "centroid"
		cells[i].Spec.Infer = "compiled"
	}
	return cells
}

// paperTable1 finds the paper's Table 1 row for a browser/OS pair.
func paperTable1(browser, os string) core.PaperTable1Row {
	for _, r := range core.PaperTable1 {
		if strings.HasPrefix(r.Browser, browser) && r.OS == os {
			return r
		}
	}
	return core.PaperTable1Row{}
}

// clfScenario is the closed-world dataset clf-sweep collects once.
func clfScenario() core.ScenarioSpec {
	return core.ScenarioSpec{Name: "clf-sweep/chrome/linux/loop", OS: "linux", Browser: "chrome", Attack: "loop"}
}

// clfScale sizes the clf-sweep dataset: 16 sites × 8 visits, 8 folds.
func clfScale(seed uint64) core.Scale {
	return core.Scale{Sites: 16, TracesPerSite: 8, Folds: 8, Seed: seed}
}

// clfClassifiers are evaluated on the dataset in this order every
// repetition: the paper's CNN-LSTM and logistic regression.
var clfClassifiers = []string{"cnn-lstm", "logreg"}

// distCells is one dist-grid repetition: Figure-4-kind meantrace cells for
// the first distSites closed-world sites under both attacks. The sites are
// fixed so that seeds vary the simulation, not the grid's cost.
func distCells(seed uint64, rep int) []core.CellSpec {
	cellSeed := mix(seed, uint64(2000+rep))
	var specs []core.CellSpec
	for _, site := range website.ClosedWorldDomains()[:distSites] {
		for _, attack := range []string{"loop", "sweep"} {
			specs = append(specs, core.CellSpec{
				Kind:     "meantrace",
				Scenario: core.ScenarioSpec{Name: "dist/" + attack, OS: "linux", Browser: "chrome", Attack: attack},
				Scale:    core.Scale{Seed: cellSeed},
				Site:     site,
				Runs:     2,
			})
		}
	}
	return specs
}

const distSites = 24

// serveTrainScale is what cmd/serve's "-scale small" trains on; the
// offline reference model must match it to predict the daemon's labels.
func serveTrainScale(seed uint64) core.Scale {
	return core.Scale{Sites: 10, TracesPerSite: 8, Folds: 2, Seed: seed}
}

// serveHeldOutScale is the held-out request corpus: fresh visits of the
// same sites under a seed the daemon never trained on.
func serveHeldOutScale(seed uint64) core.Scale {
	return core.Scale{Sites: 10, TracesPerSite: 6, Folds: 2, Seed: mix(seed, 3000)}
}

// arrivals is one open-loop step: Poisson arrival offsets at the given
// rate over dur, and which corpus trace each request carries.
type arrivals struct {
	Offsets []time.Duration
	Trace   []int
}

func schedule(seed uint64, step int, rate float64, dur time.Duration, corpus int) arrivals {
	r := rng{s: mix(seed, uint64(4000+step))}
	var a arrivals
	t := 0.0
	for {
		t += -math.Log(r.float()) / rate
		if t >= dur.Seconds() {
			return a
		}
		a.Offsets = append(a.Offsets, time.Duration(t*float64(time.Second)))
		a.Trace = append(a.Trace, r.intn(corpus))
	}
}
