// Package defense implements the paper's two countermeasures (§6): the
// randomized timer (deployed through clockface.Randomized) and the
// spurious-interrupt noise injector, plus the cache-sweep noise
// countermeasure of Shusterman et al. used as the Table 2 baseline.
package defense

import (
	"repro/internal/clockface"
	"repro/internal/interrupt"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// RandomizedTimer returns the paper's §6.1 randomized timer backed by the
// given stream. It is a convenience wrapper so harness code treats the
// defense uniformly with the noise injectors.
func RandomizedTimer(rng *sim.Stream) clockface.Timer {
	return clockface.NewRandomized(rng)
}

// InterruptNoise is the Chrome-extension countermeasure (§6.2): it
// schedules "thousands of activity bursts and network pings at random
// intervals, which generates thousands of interrupts" while sites load.
type InterruptNoise struct {
	// BurstsPerSec is the mean macro-burst arrival rate. Each burst is a
	// sustained storm of pings and deferred work lasting BurstLen, so the
	// noise *looks like page activity* rather than a uniform hum — the
	// property that actually confuses the classifier.
	BurstsPerSec float64
	// BurstLen bounds (uniform) the duration of one burst.
	BurstLenLo, BurstLenHi sim.Duration
	// PingRate bounds (uniform, per burst) the in-burst NIC ping rate.
	PingRateLo, PingRateHi float64

	stopped bool
}

// DefaultInterruptNoise matches the paper's effectiveness band (Table 2:
// loop-counting accuracy 95.7% → 62.0%).
func DefaultInterruptNoise() *InterruptNoise {
	return &InterruptNoise{
		BurstsPerSec: 2.2,
		BurstLenLo:   100 * sim.Millisecond, BurstLenHi: sim.Second,
		PingRateLo: 1800, PingRateHi: 9000,
	}
}

// PageLoadSlowdown is the measured cost of the extension: average load
// time grows from 3.12 s to 3.61 s, a 15.7% increase (§6.2).
const PageLoadSlowdown = 3.61 / 3.12

// Start schedules the noise generators on machine m until `until`.
func (n *InterruptNoise) Start(m *kernel.Machine, until sim.Time) {
	rng := m.RNG().Fork("defense-interrupt-noise")
	burstMean := sim.Duration(float64(sim.Second) / n.BurstsPerSec)
	m.Eng.Chain(m.Eng.Now()+rng.DurExp(burstMean), func() (sim.Time, bool) {
		if n.stopped || m.Eng.Now() >= until {
			return 0, false
		}
		end := m.Eng.Now() + rng.DurUniform(n.BurstLenLo, n.BurstLenHi)
		if end > until {
			end = until
		}
		pingGap := sim.Duration(float64(sim.Second) / rng.Uniform(n.PingRateLo, n.PingRateHi))
		ping := func() (sim.Time, bool) {
			if n.stopped || m.Eng.Now() >= end {
				return 0, false
			}
			m.Ctl.RaiseIRQ(interrupt.NetRX)
			// Each ping's packet processing fills socket buffers and
			// skb pools, evicting attacker cache lines as a side
			// effect — a second reason interrupt noise also degrades
			// the sweep-counting attack (Table 2).
			m.Cache.VictimAccesses(768)
			if rng.Bernoulli(0.15) {
				m.Ctl.DeferSoftirq(interrupt.SoftTimer, kernel.VictimCore)
			}
			if rng.Bernoulli(0.05) {
				m.Ctl.RaiseIRQ(interrupt.Graphics)
			}
			if rng.Bernoulli(0.03) {
				m.Ctl.SendResched(rng.IntN(m.Ctl.NumCores()))
			}
			return m.Eng.Now() + rng.DurExp(pingGap), true
		}
		// The burst's first ping runs inline, at the burst's start; the
		// chain takes over from its re-arm.
		if next, ok := ping(); ok {
			m.Eng.Chain(next, ping)
		}
		return m.Eng.Now() + rng.DurExp(burstMean), true
	})
}

// Stop halts the generators.
func (n *InterruptNoise) Stop() { n.stopped = true }

// CacheSweepNoise is the countermeasure proposed by Shusterman et al.:
// a background process repeatedly evicts the entire LLC. It devastates the
// *cache* component of the sweep-counting signal (every sweep misses
// everywhere) but barely touches the interrupt component — which is the
// paper's Table 2 evidence that the interrupt channel dominates.
type CacheSweepNoise struct {
	// SweepsPerSec is how often the noise process completes a full LLC
	// eviction pass.
	SweepsPerSec float64
	// EffectiveFraction is the share of each noise pass that survives as
	// evictions of *attacker* lines. The attacker sweeps concurrently
	// and immediately reloads its lines, so only the noise traffic that
	// interleaves between the attacker's own touches of a line sticks;
	// a full-pass model would wrongly saturate the attacker's sweeps and
	// mask the victim's cache signal entirely.
	EffectiveFraction float64

	stopped bool
}

// DefaultCacheSweepNoise sweeps continuously (~6 kHz for an 8 MiB LLC at
// ~160 µs per pass).
func DefaultCacheSweepNoise() *CacheSweepNoise {
	return &CacheSweepNoise{SweepsPerSec: 6000, EffectiveFraction: 0.008}
}

// Start schedules LLC eviction passes until `until`. The noise process is
// CPU-bound on its own core; its only cross-core effects are the cache
// evictions and occasional scheduler wakeups.
func (c *CacheSweepNoise) Start(m *kernel.Machine, until sim.Time) {
	rng := m.RNG().Fork("defense-cache-noise")
	period := sim.Duration(float64(sim.Second) / c.SweepsPerSec)
	// The noise process shares the machine with everything else, so its
	// sweep rate wanders (scheduling, DRAM contention); the wandering is
	// what injects *variance* into the sweep attacker's costs rather
	// than a constant slowdown it could calibrate away.
	intensity := 1.0
	m.Eng.Tick(0, 200*sim.Millisecond, func(sim.Time) {
		intensity = rng.Uniform(0.35, 1.0)
	})
	m.Eng.Chain(m.Eng.Now()+period, func() (sim.Time, bool) {
		if c.stopped || m.Eng.Now() >= until {
			return 0, false
		}
		// One pass touches every line of an LLC-sized buffer; only the
		// effective fraction lands as attacker-line evictions (see
		// EffectiveFraction).
		m.Cache.VictimAccesses(float64(m.Cache.Geometry().Lines()) * intensity * c.EffectiveFraction)
		// The noise process occasionally blocks and wakes (page faults,
		// timer slack), producing sparse resched IPIs.
		if rng.Bernoulli(0.001) {
			m.Ctl.SendResched(rng.IntN(m.Ctl.NumCores()))
		}
		return m.Eng.Now() + rng.DurLogNormal(period, 0.1, period/2, period*4), true
	})
	// A busy background process also holds the package at all-core turbo.
	m.Eng.Tick(0, 10*sim.Millisecond, func(sim.Time) {
		if !c.stopped {
			m.Gov.ReportLoad(0.15)
		}
	})
}

// Stop halts the noise process.
func (c *CacheSweepNoise) Stop() { c.stopped = true }
