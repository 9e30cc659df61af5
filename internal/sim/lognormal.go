package sim

import "math"

// lnTableBits sets the resolution of LogNormalTable: 2^11 equal-probability
// bins.
const (
	lnTableBits = 11
	lnTableBins = 1 << lnTableBits
	// lnFracBits is how many of a draw's 53 uniform bits remain below the
	// bin index, as the position within the bin.
	lnFracBits  = 53 - lnTableBits
	lnFracScale = 1.0 / (1 << lnFracBits)
)

// LogNormalTable samples the clamped log-normal duration distribution of
// Stream.DurLogNormal by table inversion of its CDF. The table holds the
// distribution's quantile at every bin edge; a draw takes one Uint64 from
// the stream, whose top bits pick a bin and whose next bits interpolate
// linearly inside it. The first and last bins, where the quantile curves
// away to the tails, are evaluated exactly instead.
//
// DurLogNormal spends most of its time in math.Exp, and where each draw
// feeds the next event, that latency cannot overlap with anything else.
// Sample replaces it with a load and a multiply-add. A table is immutable
// once built and safe for concurrent use.
type LogNormalTable struct {
	median, sigma float64
	min, max      Duration
	// q[i] is the clamped quantile at probability i/lnTableBins.
	q [lnTableBins + 1]float32
}

// NewLogNormalTable builds the sampler for DurLogNormal(median, sigma, min,
// max).
func NewLogNormalTable(median Duration, sigma float64, min, max Duration) *LogNormalTable {
	t := &LogNormalTable{median: float64(median), sigma: sigma, min: min, max: max}
	for i := range t.q {
		v := t.quantile(float64(i) / lnTableBins)
		v = math.Max(v, float64(min))
		if max > 0 {
			v = math.Min(v, float64(max))
		}
		t.q[i] = float32(v)
	}
	return t
}

// quantile is the unclamped log-normal quantile function at probability u:
// median·exp(σ·√2·erfinv(2u−1)).
func (t *LogNormalTable) quantile(u float64) float64 {
	return t.median * math.Exp(t.sigma*math.Sqrt2*math.Erfinv(2*u-1))
}

// Sample draws one duration from s.
func (t *LogNormalTable) Sample(s *Stream) Duration { return t.at(s.pcg.Uint64()) }

// at maps one uniform 64-bit draw to a duration; it is non-decreasing in
// the draw.
func (t *LogNormalTable) at(r uint64) Duration {
	x := r >> (64 - 53) // 53 uniform bits
	i := x >> lnFracBits
	var v float64
	if i-1 < lnTableBins-2 { // a body bin: 0 < i < lnTableBins-1
		lo, hi := float64(t.q[i]), float64(t.q[i+1])
		v = lo + (hi-lo)*float64(x&(1<<lnFracBits-1))*lnFracScale
	} else {
		v = t.quantile(float64(x) * 0x1p-53)
	}
	return clampDur(v, t.min, t.max)
}
