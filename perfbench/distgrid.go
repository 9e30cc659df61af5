package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
)

// distWorkers in-process replicas with one lane each: one cell per vCPU
// of the 2-vCPU reference host.
const distWorkers = 2

// runDistGrid starts a coordinator and two in-process workers on loopback
// (set-up), then repeats: dispatch a fresh meantrace grid through
// Coordinator.RunCells (timed), run the same specs through
// core.RunCellsInProcess, and require byte-identical results.
func runDistGrid(o childOpts, tr *Tracer) *passResult {
	p := newPass(o)
	co, err := dist.NewCoordinator("127.0.0.1:0", dist.Config{})
	if err != nil {
		p.failAll(1, err)
		return p
	}
	wait := dist.StartInProcWorkers(co.Addr(), distWorkers, dist.WorkerOptions{Lanes: 1})
	defer func() {
		if err := co.Shutdown(10 * time.Second); err != nil {
			p.fail(fmt.Errorf("coordinator shutdown: %w", err))
		}
		if err := wait(); err != nil {
			p.fail(fmt.Errorf("workers: %w", err))
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); co.Stats().Workers < distWorkers; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			p.failAll(1, fmt.Errorf("workers did not connect"))
			return p
		}
	}
	p.SetupS = time.Since(o.t0).Seconds()
	if o.maxReps == 0 {
		return p
	}

	before := defaultCounters()
	retries0 := co.Stats().Retries
	var distWall, localWall time.Duration
	var resultBytes, cells int
	start := time.Now()
	for rep := 0; rep == 0 || (time.Since(start) < o.budget && rep < o.maxReps); rep++ {
		specs := distCells(o.seed, rep)
		var sp *Active
		if tr != nil {
			sp = tr.Start(nil, "dist")
		}
		cpu0, t0 := processCPU(), time.Now()
		got, err := co.RunCells(specs, 0)
		wall, cpu := time.Since(t0), processCPU()-cpu0
		if sp != nil {
			sp.End()
		}
		p.addRep(wall, cpu)
		distWall += wall
		p.Attempted += len(specs)
		if err != nil {
			p.failMany(len(specs), err)
			continue
		}
		if tr != nil {
			sp = tr.Start(nil, "local")
		}
		t0 = time.Now()
		want, err := core.RunCellsInProcess(specs, distWorkers)
		localWall += time.Since(t0)
		if sp != nil {
			sp.End()
		}
		if err != nil {
			p.failMany(len(specs), err)
			continue
		}
		p.Ops += len(specs)
		for i := range specs {
			name := fmt.Sprintf("rep %d %s %s", rep, specs[i].Scenario.Name, specs[i].Site)
			if err := checkCellBytes(name, got[i], want[i]); err != nil {
				p.fail(err)
			}
			if rep == 0 {
				p.Digests = append(p.Digests, digest(got[i]))
			}
			if b, err := json.Marshal(got[i]); err == nil {
				resultBytes += len(b)
			}
			cells++
		}
	}
	p.Events = defaultCounters()[ctrEvents]
	if tr != nil {
		after := defaultCounters()
		p.Metrics = map[string]float64{
			"dist.wall_s":               distWall.Seconds(),
			"dist.local_wall_s":         localWall.Seconds(),
			"dist.overhead_ms_per_cell": ratio((distWall-localWall).Seconds()*1e3, float64(cells)),
			"dist.result_kb_per_cell":   ratio(float64(resultBytes)/1024, float64(cells)),
			"dist.retries":              float64(co.Stats().Retries - retries0),
		}
		if d, ok := counterDelta(before, after, ctrAggFrames); ok {
			p.Metrics["telemetry.frames"] = float64(d)
		}
	}
	return p
}
