package main

import (
	"testing"

	"repro/internal/core"
)

// The traced decomposition must reproduce the cell path exactly, or the
// per-layer figures would describe a different computation.
func TestTracedDecompositionMatchesCellPath(t *testing.T) {
	spec := core.CellSpec{
		Scenario:   core.ScenarioSpec{Name: "tiny", OS: "linux", Browser: "chrome", Attack: "loop"},
		Scale:      core.Scale{Sites: 3, TracesPerSite: 4, Folds: 2, Seed: 5},
		Classifier: "centroid", Infer: "compiled",
	}
	tr := NewTracer("test")
	traced, err := tracedCell(tr, spec)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := core.RunCellsInProcess([]core.CellSpec{spec}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if digest(traced) != digest(rs[0].Result) {
		t.Error("traced cell differs from core.RunCellsInProcess")
	}
	tot := Totals(tr.Spans())
	for _, name := range []string{"cell", "collect", "evaluate"} {
		if tot[name] == nil || tot[name].N != 1 {
			t.Errorf("want one %q span, got %+v", name, tot[name])
		}
	}

	scn, _ := spec.Scenario.ToScenario()
	ds, err := core.CollectDataset(scn, spec.Scale)
	if err != nil {
		t.Fatal(err)
	}
	mk, _ := core.ClassifierByName("logreg")
	plain, err := core.Evaluate(ds, spec.Scale, mk, "logreg")
	if err != nil {
		t.Fatal(err)
	}
	tr = NewTracer("test")
	wrapped, err := tracedEvaluate(tr, ds, spec.Scale, mk, "logreg")
	if err != nil {
		t.Fatal(err)
	}
	if digest(plain) != digest(wrapped) {
		t.Error("traced evaluation differs from core.Evaluate")
	}
	m := perLayer(tr.Spans())
	if m["fit.wall_s"] <= 0 || m["predict.samples"] != float64(ds.Len()) || m["preprocess.rows"] != float64(ds.Len()/2*spec.Scale.Folds) {
		t.Errorf("per-layer figures off: fit %g s, %g predicted, %g rows packed",
			m["fit.wall_s"], m["predict.samples"], m["preprocess.rows"])
	}
}
