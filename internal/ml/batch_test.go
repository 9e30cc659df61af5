package ml

import (
	"testing"

	"repro/internal/sim"
)

// TestTrainBatchedPerSampleEquivalence is the acceptance gate of the
// batch-major fast path: trained weights must be bit-identical to the
// per-sample reference engine, at Parallelism 1 and ≥4, dropout active.
func TestTrainBatchedPerSampleEquivalence(t *testing.T) {
	for _, par := range []int{1, 4} {
		b0 := mTrainBatchedBatches.Value()
		refW, refAcc := trainEquiv(t, par, true)
		if n := mTrainBatchedBatches.Value() - b0; n != 0 {
			t.Fatalf("par=%d: per-sample reference ran %d batched batches", par, n)
		}
		w, acc := trainEquiv(t, par, false)
		if mTrainBatchedBatches.Value() == b0 {
			t.Fatalf("par=%d: batched run never took the batch-major path", par)
		}
		if acc != refAcc {
			t.Errorf("par=%d: batched accuracy %v != per-sample %v", par, acc, refAcc)
		}
		if len(w.Blobs) != len(refW.Blobs) {
			t.Fatalf("par=%d: %d blobs vs %d", par, len(w.Blobs), len(refW.Blobs))
		}
		for bi := range w.Blobs {
			for i := range w.Blobs[bi] {
				if w.Blobs[bi][i] != refW.Blobs[bi][i] {
					t.Fatalf("par=%d: blob %d elem %d differs: batched %v vs per-sample %v",
						par, bi, i, w.Blobs[bi][i], refW.Blobs[bi][i])
				}
			}
		}
	}
}

// TestBatchedEngineSteadyStateAllocs checks the batched engine's per-batch
// cost is O(1) allocations once its arenas are warm — not O(batch size)
// like the per-sample path's CrossEntropy.
func TestBatchedEngineSteadyStateAllocs(t *testing.T) {
	X, y := equivDataset(16, 160)
	model, err := PaperNet(5, 160, 4, 4, 6, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	eng := newTrainEngine(model, 1, X)
	defer eng.close()
	if !eng.batched {
		t.Fatal("engine did not select the batched path")
	}
	batch := make([]int, len(X))
	for i := range batch {
		batch[i] = i
	}
	eng.trainBatch(X, y, batch, 0) // warm the arenas
	for _, p := range eng.params {
		p.zeroGrad()
	}
	allocs := testing.AllocsPerRun(10, func() {
		eng.trainBatch(X, y, batch, 0)
		for _, p := range eng.params {
			p.zeroGrad()
		}
	})
	if allocs > 2 {
		t.Fatalf("batched trainBatch allocates %v per batch in steady state; want O(1)", allocs)
	}
}

// TestEngineAccuracyMatchesAccuracyParallel checks Fit's pooled validation
// path scores exactly like the public AccuracyParallel.
func TestEngineAccuracyMatchesAccuracyParallel(t *testing.T) {
	X, y := equivDataset(30, 160)
	model, err := PaperNet(6, 160, 4, 4, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Fit(X, y, nil, nil, FitConfig{Epochs: 1, BatchSize: 8, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		eng := newTrainEngine(model, par, X)
		got := eng.accuracy(X, y)
		eng.close()
		if want := model.AccuracyParallel(X, y, par); got != want {
			t.Fatalf("par=%d: engine accuracy %v != AccuracyParallel %v", par, got, want)
		}
	}
}

// TestStreamReseedMatchesNewStream guards the dropout fast path: a Reseed'd
// stream must replay exactly the sequence a fresh NewStream produces.
func TestStreamReseedMatchesNewStream(t *testing.T) {
	reused := sim.NewStream(0, "dropout-mask")
	hash := sim.NameHash("dropout-mask")
	for _, seed := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
		reused.Reseed(seed, hash)
		fresh := sim.NewStream(seed, "dropout-mask")
		for i := 0; i < 32; i++ {
			if a, b := reused.Float64(), fresh.Float64(); a != b {
				t.Fatalf("seed %#x draw %d: reseeded %v != fresh %v", seed, i, a, b)
			}
		}
	}
}

// benchFit trains a small PaperNet on the batch-major engine, or on the
// per-sample reference engine when perSample is set, for the benchmark.
func benchFit(b *testing.B, par int, perSample bool) {
	X, y := equivDataset(48, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, err := PaperNet(7, 300, 4, 16, 16, 0.2)
		if err != nil {
			b.Fatal(err)
		}
		cfg := FitConfig{Epochs: 2, BatchSize: 16, LR: 0.003, Seed: 11, Parallelism: par, perSample: perSample}
		if err := model.Fit(X, y, nil, nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitBatched compares the batch-major fast path against the
// per-sample reference engine on the paper's network shape.
func BenchmarkFitBatched(b *testing.B) {
	b.Run("batched", func(b *testing.B) { benchFit(b, 0, false) })
	b.Run("persample", func(b *testing.B) { benchFit(b, 0, true) })
}
