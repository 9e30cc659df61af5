package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/stats"
)

func TestCheckAboveChanceRejects(t *testing.T) {
	ok := &core.Result{Top1: stats.Summary{Mean: 10.5}}
	if err := checkAboveChance("ok", ok, 10); err != nil {
		t.Errorf("10.5%% over 10 classes rejected: %v", err)
	}
	for name, r := range map[string]*core.Result{
		"at chance": {Top1: stats.Summary{Mean: 10}},
		"below":     {Top1: stats.Summary{Mean: 3}},
		"NaN":       {Top1: stats.Summary{Mean: math.NaN()}},
		"missing":   nil,
	} {
		if err := checkAboveChance(name, r, 10); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDigestCatchesACorruptedResult(t *testing.T) {
	r := core.Result{Scenario: "x", FoldTop1: []float64{0.5, 0.75}, Top1: stats.Summary{Mean: 62.5}}
	bad := r
	bad.FoldTop1 = []float64{0.5, math.Nextafter(0.75, 1)}
	want := []string{digest(r), digest(r)}
	if errs := checkSameDigests(want, []string{digest(r), digest(r)}); len(errs) != 0 {
		t.Errorf("equal results rejected: %v", errs)
	}
	if errs := checkSameDigests(want, []string{digest(r), digest(bad)}); len(errs) != 1 {
		t.Errorf("one-ulp corruption gave %d errors, want 1", len(errs))
	}
	if errs := checkSameDigests(want, want[:1]); len(errs) != 1 {
		t.Errorf("missing operation gave %d errors, want 1", len(errs))
	}
}

func TestCheckCellBytesRejects(t *testing.T) {
	good := core.CellResult{Series: []float64{0.25, 1, 0.5}}
	if err := checkCellBytes("good", good, core.CellResult{Series: []float64{0.25, 1, 0.5}}); err != nil {
		t.Errorf("identical cells rejected: %v", err)
	}
	flipped := core.CellResult{Series: []float64{0.25, 1, math.Nextafter(0.5, 0)}}
	if checkCellBytes("flipped", flipped, good) == nil {
		t.Error("a one-ulp difference was accepted")
	}
	short := core.CellResult{Series: []float64{0.25, 1}}
	if checkCellBytes("short", short, good) == nil {
		t.Error("a truncated series was accepted")
	}
	if checkCellBytes("empty", core.CellResult{}, core.CellResult{}) == nil {
		t.Error("an empty series was accepted")
	}
}

func TestServeChecksReject(t *testing.T) {
	if checkLabel(0, 3, 3) != nil || checkLabel(0, 3, 4) == nil {
		t.Error("checkLabel does not compare labels")
	}
	lat := make([]float64, 2000)
	for i := range lat {
		lat[i] = 500
	}
	ok := stepResult{Rate: 1000, Lat: lat, Late: make([]float64, 2000), Errs: make([]error, 2000)}
	if met, why := ok.meets(time.Millisecond); !met {
		t.Fatalf("a clean step missed: %s", why)
	}
	wrong := ok
	wrong.Errs = append([]error(nil), ok.Errs...)
	wrong.Errs[7] = checkLabel(7, 1, 2)
	if met, _ := wrong.meets(time.Millisecond); met || len(wrong.wrong()) != 1 {
		t.Error("a wrong label did not fail the step")
	}
	shed := ok
	shed.Errs = append([]error(nil), ok.Errs...)
	shed.Errs[3] = serve.ErrOverloaded
	if met, _ := shed.meets(time.Millisecond); met || shed.sheds() != 1 || len(shed.wrong()) != 0 {
		t.Error("a shed request did not miss the limit, or counted as a wrong answer")
	}
	slow := ok
	slow.Lat = append([]float64(nil), lat...)
	for i := 1800; i < 2000; i++ {
		slow.Lat[i] = 5000 // backlog building at the end of the step
	}
	if met, _ := slow.meets(time.Millisecond); met {
		t.Error("a growing backlog met the limit")
	}
}
