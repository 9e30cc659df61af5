package main

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestInputsAreSeedDeterministic(t *testing.T) {
	if !reflect.DeepEqual(paperGrid(7), paperGrid(7)) {
		t.Error("paperGrid differs for one seed")
	}
	if reflect.DeepEqual(paperGrid(7), paperGrid(8)) {
		t.Error("paperGrid ignores its seed")
	}
	if !reflect.DeepEqual(distCells(7, 2), distCells(7, 2)) {
		t.Error("distCells differs for one seed")
	}
	if reflect.DeepEqual(distCells(7, 2), distCells(8, 2)) || reflect.DeepEqual(distCells(7, 2), distCells(7, 3)) {
		t.Error("distCells ignores its seed or repetition")
	}
	a := schedule(7, 1, 1000, time.Second, 60)
	if !reflect.DeepEqual(a, schedule(7, 1, 1000, time.Second, 60)) {
		t.Error("schedule differs for one seed")
	}
	if reflect.DeepEqual(a, schedule(8, 1, 1000, time.Second, 60)) || reflect.DeepEqual(a, schedule(7, 2, 1000, time.Second, 60)) {
		t.Error("schedule ignores its seed or step")
	}
	if clfScale(7) != clfScale(7) || serveHeldOutScale(7) == serveHeldOutScale(8) {
		t.Error("scales are not functions of the seed")
	}
	if serveHeldOutScale(7).Seed == serveTrainScale(7).Seed {
		t.Error("held-out corpus shares the daemon's training seed")
	}
}

func TestScheduleShape(t *testing.T) {
	a := schedule(3, 0, 4000, 2*time.Second, 60)
	if n := len(a.Offsets); n < 7600 || n > 8400 {
		t.Errorf("%d arrivals at 4000/s over 2s", n)
	}
	for i, off := range a.Offsets {
		if off < 0 || off >= 2*time.Second || (i > 0 && off < a.Offsets[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or range", i, off)
		}
		if a.Trace[i] < 0 || a.Trace[i] >= 60 {
			t.Fatalf("arrival %d carries trace %d", i, a.Trace[i])
		}
	}
}

// The paper-grid subset must keep every browser, OS, attack kind,
// isolation mechanism and timer family of Tables 1–4.
func TestPaperGridCoverage(t *testing.T) {
	seen := map[string]bool{}
	open := false
	for _, c := range paperGrid(1) {
		s := c.Spec.Scenario
		seen["browser:"+s.Browser] = true
		seen["os:"+s.OS] = true
		seen["attack:"+s.Attack] = true
		timer, _, _ := strings.Cut(s.Timer, ":")
		if timer == "" {
			timer = "browser-default"
		}
		seen["timer:"+timer] = true
		if s.FixedFreqGHz > 0 && s.PinCores && s.RemoveIRQs && s.SeparateVMs {
			seen["isolation:all"] = true
		}
		if c.Spec.Scale.OpenWorld > 0 {
			open = true
		}
		if c.Spec.Classifier == "" || c.Spec.Infer == "" {
			t.Errorf("%s: classifier and tier must be named in the spec", s.Name)
		}
		if err := c.Spec.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	for _, k := range []string{
		"browser:chrome", "browser:firefox", "browser:safari", "browser:tor",
		"os:linux", "os:windows", "os:macos", "attack:loop", "attack:sweep",
		"timer:browser-default", "timer:python", "timer:jittered", "timer:quantized", "timer:randomized",
		"isolation:all",
	} {
		if !seen[k] {
			t.Errorf("paper-grid lacks %s", k)
		}
	}
	if !open {
		t.Error("paper-grid lacks an open-world cell")
	}
}
