package main

import (
	"math"
	"strings"

	"repro/internal/obs"
)

// Program counters the per-layer metrics read, by name.
const (
	ctrEvents     = "core.sim.events_processed"
	ctrDSHits     = "core.dscache.hits"
	ctrDSMisses   = "core.dscache.misses"
	gaugeResident = "core.dscache.resident_bytes"
	ctrFitEpochs  = "ml.fit.epochs"
	ctrFitSamples = "ml.fit.samples"
	ctrFallbacks  = "ml.infer.cache.fallbacks"
	ctrServeReqs  = "serve.requests"
	ctrServeBatch = "serve.batches"
	ctrShedQueue  = "serve.shed_overload"
	ctrShedDead   = "serve.shed_deadline"
	histServeE2E  = "serve.e2e_us"
	ctrAggFrames  = "obs.aggregator.frames"
	bytesPerMiB   = 1 << 20
	usPerSecond   = 1e6
)

// perLayer turns the spans of a traced batch run (collect, cell,
// evaluate, preprocess, fit, predict) into per-layer metrics. Metrics of
// layers with no spans are 0; metrics built on a counter the program no
// longer registers are left out.
func perLayer(spans []Span) map[string]float64 {
	tot := Totals(spans)
	get := func(name string) *layerTotals {
		if lt := tot[name]; lt != nil {
			return lt
		}
		return &layerTotals{Counters: map[string]int64{}}
	}
	snap := obs.Default.Snapshot()
	m := make(map[string]float64)
	// ctr sets a metric from a program counter, or leaves it absent.
	ctr := func(metric string, lt *layerTotals, name string) (float64, bool) {
		if _, ok := snap.Counters[name]; !ok {
			return 0, false
		}
		v := float64(lt.Counters[name])
		m[metric] = v
		return v, true
	}

	col := get("collect")
	m["collect.wall_s"] = col.Wall.Seconds()
	m["collect.cpu_s"] = col.CPU.Seconds()
	m["collect.traces"] = float64(col.Counters["bench.traces"])
	if ev, ok := ctr("collect.events", col, ctrEvents); ok {
		m["collect.cpu_ns_per_event"] = ratio(float64(col.CPU), ev)
	}
	m["collect.sim_s_per_cpu_s"] = ratio(float64(col.Counters["bench.sim_ns"]), float64(col.CPU))

	hits, okH := ctr("dscache.hits", col, ctrDSHits)
	misses, okM := ctr("dscache.misses", col, ctrDSMisses)
	if okH && okM {
		m["dscache.hit_ratio"] = ratio(hits, hits+misses)
	}
	if v, ok := snap.Gauges[gaugeResident]; ok {
		m["dscache.resident_mb"] = v / bytesPerMiB
	}

	cells := get("cell")
	walls := make([]float64, len(cells.Walls))
	for i, w := range cells.Walls {
		walls[i] = w.Seconds()
	}
	m["cells.count"] = float64(cells.N)
	m["cells.wall_p50_s"] = median(walls)
	m["cells.wall_max_s"] = maxOf(walls)

	ev := get("evaluate")
	m["evaluate.wall_s"] = ev.Wall.Seconds()
	m["evaluate.cpu_s"] = ev.CPU.Seconds()

	pre := get("preprocess")
	m["preprocess.wall_s"] = pre.Wall.Seconds()
	m["preprocess.rows"] = float64(pre.Counters["bench.rows"])

	fit := get("fit")
	m["fit.wall_s"] = fit.Wall.Seconds()
	m["fit.cpu_s"] = fit.CPU.Seconds()
	ctr("fit.epochs", fit, ctrFitEpochs)
	if n, ok := ctr("fit.samples", fit, ctrFitSamples); ok {
		m["fit.cpu_us_per_sample"] = ratio(fit.CPU.Seconds()*usPerSecond, n)
	}

	pred := get("predict")
	n := float64(pred.Counters["bench.samples"])
	m["predict.wall_s"] = pred.Wall.Seconds()
	m["predict.samples"] = n
	m["predict.us_per_sample"] = ratio(pred.Wall.Seconds()*usPerSecond, n)
	ctr("predict.fallbacks", pred, ctrFallbacks)
	return m
}

// ratio is a/b, or 0 when b is 0 (no work to divide by).
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// layerOf is the layer a per-layer metric belongs to: the part of its
// name before the first dot.
func layerOf(metric string) string {
	l, _, _ := strings.Cut(metric, ".")
	return l
}
