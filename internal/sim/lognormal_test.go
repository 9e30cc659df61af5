package sim

import (
	"math"
	"testing"
)

// TestDurLogNormalOverflowClamp is the regression test for a draw that
// overflows Duration: with sigma this wide about half the draws exceed
// max, and +Inf or anything past 2^63 used to convert to math.MinInt64
// and then clamp to min instead of max.
func TestDurLogNormalOverflowClamp(t *testing.T) {
	const n = 1000
	tab := NewLogNormalTable(1000, 1000, 500, 5000)
	for _, tc := range []struct {
		name string
		draw func(*Stream) Duration
	}{
		{"exact", func(s *Stream) Duration { return s.DurLogNormal(1000, 1000, 500, 5000) }},
		{"table", tab.Sample},
	} {
		s := NewStream(1, "overflow")
		lo, hi := 0, 0
		for i := 0; i < n; i++ {
			switch d := tc.draw(s); d {
			case 500:
				lo++
			case 5000:
				hi++
			default:
				if d < 500 || d > 5000 {
					t.Fatalf("%s: draw %v outside [500, 5000]", tc.name, d)
				}
			}
		}
		if lo < n/3 || hi < n/3 {
			t.Errorf("%s: %d draws at min and %d at max of %d, want about half each", tc.name, lo, hi, n)
		}
	}

	// With no upper bound an overflowing draw saturates at MaxInt64.
	s := NewStream(2, "overflow")
	sat := 0
	for i := 0; i < n; i++ {
		d := s.DurLogNormal(1000, 1000, 500, 0)
		if d < 500 {
			t.Fatalf("unbounded draw %v below min", d)
		}
		if d == math.MaxInt64 {
			sat++
		}
	}
	if sat == 0 {
		t.Error("no unbounded draw saturated at MaxInt64")
	}
	if d := clampDur(math.Inf(1), 0, 0); d != math.MaxInt64 {
		t.Errorf("clampDur(+Inf) = %v, want MaxInt64", d)
	}
}

// TestLogNormalTableOneDraw checks that every sample consumes exactly one
// Uint64 of the stream, so a caller's stream position never depends on the
// values drawn.
func TestLogNormalTableOneDraw(t *testing.T) {
	tab := NewLogNormalTable(3000, 0.45, 800, 20000)
	a, b := NewStream(3, "one"), NewStream(3, "one")
	for i := 0; i < 10000; i++ {
		tab.Sample(a)
		b.Uint64()
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("Sample consumed other than one Uint64 per draw")
	}
}

// TestLogNormalTableInversion sweeps the uniform draw across its range and
// checks that the sampler is the clamped quantile function: non-decreasing,
// inside [min, max], exact in the tail bins, exact at every body bin edge up
// to the float32 table's rounding, and within 1% between the edges.
func TestLogNormalTableInversion(t *testing.T) {
	const median, sigma, lo, hi = 3000, 0.45, 800, 20000
	tab := NewLogNormalTable(median, sigma, lo, hi)
	exact := func(u float64) Duration {
		return clampDur(median*math.Exp(sigma*math.Sqrt2*math.Erfinv(2*u-1)), lo, hi)
	}
	prev := Duration(math.MinInt64)
	worst := 0.0
	const steps = 1 << 16
	for k := 0; k < steps; k++ {
		r := uint64(k) << (64 - 16)
		d := tab.at(r)
		if d < prev {
			t.Fatalf("at(%#x) = %v < previous %v: not monotone", r, d, prev)
		}
		if d < lo || d > hi {
			t.Fatalf("at(%#x) = %v outside [%d, %d]", r, d, lo, hi)
		}
		prev = d
		u := float64(r>>11) * 0x1p-53
		want := exact(u)
		bin := r >> (64 - lnTableBits)
		edge := r<<lnTableBits == 0
		relErr := math.Abs(float64(d-want)) / float64(want)
		worst = math.Max(worst, relErr)
		switch {
		case bin == 0 || bin == lnTableBins-1:
			if d != want {
				t.Fatalf("tail bin: at(u=%v) = %v, want exact %v", u, d, want)
			}
		case edge && math.Abs(float64(d-want)) > 1:
			t.Fatalf("bin edge: at(u=%v) = %v, quantile %v", u, d, want)
		case relErr > 0.01:
			t.Fatalf("at(u=%v) = %v, quantile %v", u, d, want)
		}
	}
	t.Logf("largest relative error against the quantile function: %.2g", worst)
	if d := tab.at(math.MaxUint64); d != exact(1-0x1p-53) {
		t.Errorf("top draw = %v, want %v", d, exact(1-0x1p-53))
	}
}
