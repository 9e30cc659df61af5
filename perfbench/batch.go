package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/trace"
)

// runPaperGrid runs the paper-grid cells once. Untraced, the whole grid
// goes through core.RunCellSpecs at full cell concurrency, as
// cmd/experiments runs a table. Traced, each cell is decomposed into its
// public calls (CollectDataset, Evaluate) and the cells run one at a time,
// so each span's CPU delta belongs to that cell alone.
func runPaperGrid(o childOpts, tr *Tracer) *passResult {
	cells := paperGrid(o.seed)
	p := newPass(o)
	if o.maxReps == 0 {
		return p
	}
	cpu0, t0 := processCPU(), time.Now()
	results := make([]*core.Result, len(cells))
	var err error
	if tr == nil {
		specs := make([]core.CellSpec, len(cells))
		for i, c := range cells {
			specs[i] = c.Spec
		}
		var rs []core.CellResult
		if rs, err = core.RunCellSpecs(specs, 0); err == nil {
			for i := range rs {
				results[i] = rs[i].Result
			}
		}
	} else {
		for i, c := range cells {
			if results[i], err = tracedCell(tr, c.Spec); err != nil {
				break
			}
		}
	}
	p.addRep(time.Since(t0), processCPU()-cpu0)
	p.Events = defaultCounters()[ctrEvents]
	if err != nil {
		p.failAll(len(cells), err)
		return p
	}
	p.Ops = len(cells)
	var gaps []float64
	for i, c := range cells {
		p.Attempted++
		p.Digests = append(p.Digests, digest(results[i]))
		classes := c.Spec.Scale.Sites
		if c.Spec.Scale.OpenWorld > 0 {
			classes++
		}
		if err := checkAboveChance(c.Spec.Scenario.Name, results[i], classes); err != nil {
			p.fail(err)
		}
		if c.Paper > 0 && results[i] != nil {
			got := results[i].Top1.Mean
			if results[i].OpenWorld {
				got = results[i].Combined.Mean
			}
			gaps = append(gaps, math.Abs(got-c.Paper))
		}
	}
	if tr != nil {
		p.Metrics = perLayer(tr.Spans())
		p.Metrics["fidelity.paper_gap_pp"] = mean(gaps)
	}
	return p
}

// tracedCell is one experiment cell decomposed into the public calls the
// cell runner makes, each under its own span.
func tracedCell(tr *Tracer, spec core.CellSpec) (*core.Result, error) {
	cell := tr.Start(nil, "cell")
	defer cell.End()
	scn, err := spec.Scenario.ToScenario()
	if err != nil {
		return nil, err
	}
	mk, err := core.ClassifierByName(spec.Classifier)
	if err != nil {
		return nil, err
	}
	ds, err := tracedCollect(tr, cell, scn, spec.Scale)
	if err != nil {
		return nil, err
	}
	ev := tr.Start(cell, "evaluate")
	res, err := core.Evaluate(ds, spec.Scale, mk, scn.Name)
	ev.End()
	return &res, err
}

// tracedCollect is core.CollectDataset under a "collect" span that also
// counts the traces and simulated time it yielded.
func tracedCollect(tr *Tracer, parent *Active, scn core.Scenario, sc core.Scale) (*trace.Dataset, error) {
	sp := tr.Start(parent, "collect")
	defer sp.End()
	ds, err := core.CollectDataset(scn, sc)
	if err != nil {
		return nil, err
	}
	dur := scn.TraceDuration
	if dur <= 0 {
		dur = scn.Browser.TraceDuration()
	}
	sp.Count("traces", int64(ds.Len()))
	sp.Count("sim_ns", int64(ds.Len())*int64(dur))
	return ds, nil
}

// runClfSweep collects one closed-world dataset (set-up), then repeats
// k-fold evaluation of every clfClassifiers entry on it until the budget
// is spent. Each repetition must reproduce the first exactly.
func runClfSweep(o childOpts, tr *Tracer) *passResult {
	scn, err := clfScenario().ToScenario()
	sc := clfScale(o.seed)
	p := newPass(o)
	var ds *trace.Dataset
	if err == nil {
		if tr != nil {
			ds, err = tracedCollect(tr, nil, scn, sc)
		} else {
			ds, err = core.CollectDataset(scn, sc)
		}
	}
	if err != nil {
		p.failAll(len(clfClassifiers), err)
		return p
	}
	p.SetupS = time.Since(o.t0).Seconds()
	makers := make([]core.ClassifierMaker, len(clfClassifiers))
	for i, name := range clfClassifiers {
		if makers[i], err = core.ClassifierByName(name); err != nil {
			p.failAll(len(clfClassifiers), err)
			return p
		}
	}
	start := time.Now()
	for rep := 0; rep == 0 || (time.Since(start) < o.budget && rep < o.maxReps); rep++ {
		cpu0, t0 := processCPU(), time.Now()
		for i, name := range clfClassifiers {
			p.Attempted++
			var res core.Result
			if tr != nil {
				res, err = tracedEvaluate(tr, ds, sc, makers[i], name)
			} else {
				res, err = core.Evaluate(ds, sc, makers[i], name)
			}
			if err != nil {
				p.fail(fmt.Errorf("%s: %w", name, err))
				continue
			}
			d := digest(res)
			if rep == 0 {
				p.Digests = append(p.Digests, d)
			} else if d != p.Digests[i] {
				p.fail(fmt.Errorf("%s: repetition %d differs from the first", name, rep))
				continue
			}
			if err := checkAboveChance(name, &res, ds.NumClasses); err != nil {
				p.fail(err)
			}
		}
		p.addRep(time.Since(t0), processCPU()-cpu0)
		p.Ops += len(clfClassifiers)
	}
	p.Events = defaultCounters()[ctrEvents]
	if tr != nil {
		p.Metrics = perLayer(tr.Spans())
	}
	return p
}

// tracedEvaluate runs core.Evaluate with folds one at a time and the
// classifier wrapped so each Fit and ScoresBatch call gets a span.
func tracedEvaluate(tr *Tracer, ds *trace.Dataset, sc core.Scale, mk core.ClassifierMaker, name string) (core.Result, error) {
	ev := tr.Start(nil, "evaluate")
	defer ev.End()
	sc.Parallelism = 1
	wrapped := func(seed uint64) ml.Classifier {
		return &tracedClassifier{inner: mk(seed), tr: tr, parent: ev}
	}
	return core.Evaluate(ds, sc, wrapped, name)
}

// tracedClassifier times the classifier's public calls. Its "preprocess"
// span times ml.PackDataset on the same training rows Fit packs
// internally; the "fit" span is the whole Fit call, packing included.
type tracedClassifier struct {
	inner  ml.Classifier
	tr     *Tracer
	parent *Active
}

func (c *tracedClassifier) Name() string { return c.inner.Name() }

func (c *tracedClassifier) Fit(train *trace.Dataset) error {
	prep := ml.DefaultPreprocessor
	if f, ok := c.inner.(ml.Freezer); ok {
		prep = f.Preprocessor()
	}
	sp := c.tr.Start(c.parent, "preprocess")
	_, err := ml.PackDataset(prep, train)
	sp.Count("rows", int64(train.Len()))
	sp.End()
	if err != nil {
		return err
	}
	sp = c.tr.Start(c.parent, "fit")
	defer sp.End()
	return c.inner.Fit(train)
}

func (c *tracedClassifier) Scores(values []float64) []float64 { return c.inner.Scores(values) }

// ScoresBatch falls back to per-trace Scores when the classifier has no
// batch path; ml.BatchScorer requires both to agree.
func (c *tracedClassifier) ScoresBatch(values [][]float64) [][]float64 {
	sp := c.tr.Start(c.parent, "predict")
	defer sp.End()
	sp.Count("samples", int64(len(values)))
	if bs, ok := c.inner.(ml.BatchScorer); ok {
		return bs.ScoresBatch(values)
	}
	out := make([][]float64, len(values))
	for i, v := range values {
		out[i] = c.inner.Scores(v)
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
