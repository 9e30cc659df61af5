// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload through the entry points users run and prints, as the
// last line of its standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics listed in
// BENCHMARK.json; with -trace 1 they are the per-layer metrics, from a
// traced run that times every call into a layer's public function. Every
// pass runs in a fresh child process, so the dataset cache, obs counters
// and peak RSS never leak from one pass to the next.
//
// Usage (see README.md; run.sh builds and invokes it):
//
//	perfbench -workload paper-grid|clf-sweep|serve-open|dist-grid
//	          -seed N -seconds S -trace 0|1 [-p99-limit 20ms]
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload to its child-process body.
var workloads = map[string]func(childOpts, *Tracer) *passResult{
	"paper-grid": runPaperGrid,
	"clf-sweep":  runClfSweep,
	"serve-open": runServeOpen,
	"dist-grid":  runDistGrid,
}

// layersOf lists the layers that do work in each workload. Per-layer
// metrics of other layers are reported as 0 (no work); metrics of these
// layers whose program counter is missing are left out.
var layersOf = map[string][]string{
	"paper-grid": {"collect", "dscache", "cells", "evaluate", "fidelity"},
	"clf-sweep":  {"collect", "dscache", "evaluate", "preprocess", "fit", "predict"},
	"serve-open": {"collect", "dscache", "serve", "loadgen"},
	"dist-grid":  {"dist", "telemetry"},
}

// childTimeout bounds one child process, so a run ends within the
// benchmark's 180 s limit even if the program under test hangs.
const childTimeout = 150 * time.Second

// childOpts is what a child process is told to run.
type childOpts struct {
	workload string
	seed     uint64
	seconds  int
	budget   time.Duration // timed repetitions continue until this is spent
	maxReps  int           // 0: stop after set-up
	t0       time.Time     // when the parent spawned this process
	root     string
	serveBin string
	p99Limit time.Duration
	traced   bool
}

// passResult is what one child process reports.
type passResult struct {
	SetupS    float64            `json:"setup_s"`
	Walls     []float64          `json:"walls"` // per timed repetition
	CPUs      []float64          `json:"cpus"`
	Ops       int                `json:"ops"` // operations in timed repetitions
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Digests   []string           `json:"digests"` // per operation of the first repetition
	Events    int64              `json:"events"`  // simulator events in the whole process
	Metrics   map[string]float64 `json:"metrics,omitempty"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
}

func newPass(o childOpts) *passResult {
	return &passResult{SetupS: time.Since(o.t0).Seconds()}
}

func (p *passResult) addRep(wall, cpu time.Duration) {
	p.Walls = append(p.Walls, wall.Seconds())
	p.CPUs = append(p.CPUs, cpu.Seconds())
}

func (p *passResult) fail(err error) { p.failMany(1, err) }

// failMany counts n failed operations for one error.
func (p *passResult) failMany(n int, err error) {
	p.Failed += n
	if len(p.Problems) < 20 {
		p.Problems = append(p.Problems, err.Error())
	}
}

// failAll counts n attempted operations that all failed with err.
func (p *passResult) failAll(n int, err error) {
	p.Attempted += n
	p.failMany(n, err)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(child(os.Args[2:]))
	}
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "paper-grid, clf-sweep, serve-open or dist-grid")
	seed := fs.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Int("seconds", 20, "how long one run measures")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	p99Limit := fs.Duration("p99-limit", 20*time.Millisecond, "serve-open: p99 latency a ladder rate must meet to count toward serve.max_rps")
	serveBin := fs.String("serve-bin", "", "path of the built cmd/serve daemon")
	root := fs.String("root", ".", "repository checkout root")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if workloads[*workload] == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (paper-grid, clf-sweep, serve-open, dist-grid), -seconds ≥ 1 and -trace 0|1")
		return 2
	}
	spec, err := readSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r := runner{
		self: self, workload: *workload, seed: *seed, seconds: *seconds,
		root: *root, serveBin: *serveBin, p99Limit: *p99Limit,
	}
	prov, _ := json.Marshal(provenance(*root, *workload, *seed, *seconds, *traceFlag == 1))
	fmt.Printf("provenance %s\n", prov)

	var out result
	if *traceFlag == 1 {
		out, err = r.traced(spec.PerLayer)
	} else {
		out, err = r.measure(spec.EndToEnd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// readSpec loads metric names and units from BENCHMARK.json, so the
// printed metrics are exactly the declared ones.
func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type runner struct {
	self, workload, root, serveBin string
	seed                           uint64
	seconds                        int
	p99Limit                       time.Duration
}

// spawn runs one pass in a fresh child process and returns its report
// with the child's peak RSS filled in.
func (r runner) spawn(budget time.Duration, maxReps int, traced bool) (*passResult, error) {
	t0 := time.Now()
	args := []string{"child",
		"-workload", r.workload,
		"-seed", strconv.FormatUint(r.seed, 10),
		"-seconds", strconv.Itoa(r.seconds),
		"-budget", budget.String(),
		"-max-reps", strconv.Itoa(maxReps),
		"-t0", strconv.FormatInt(t0.UnixNano(), 10),
		"-root", r.root,
		"-serve-bin", r.serveBin,
		"-p99-limit", r.p99Limit.String(),
	}
	if traced {
		args = append(args, "-trace")
	}
	cmd := exec.Command(r.self, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	timer := time.AfterFunc(childTimeout, func() { cmd.Process.Kill() })
	err := cmd.Wait()
	timer.Stop()
	if err != nil {
		return nil, fmt.Errorf("%s pass: %w", r.workload, err)
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	var p passResult
	if err := json.Unmarshal([]byte(last), &p); err != nil {
		return nil, fmt.Errorf("%s pass: bad report: %w", r.workload, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.PeakRSSMB = float64(ru.Maxrss) / 1024
	}
	for _, prob := range p.Problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", r.workload, prob)
	}
	return &p, nil
}

// passPlan is how a workload fills one run: how many child passes and how
// long each repeats its timed part.
func (r runner) passPlan() (passes int, budget time.Duration, maxReps int) {
	total := time.Duration(r.seconds) * time.Second
	switch r.workload {
	case "serve-open":
		return 1, total, 1
	case "paper-grid":
		// One grid per process: a second grid in the same process would
		// meet a warm dataset cache.
		return 0, 0, 1
	}
	return 3, total / 3, 1000
}

// measure is the untraced run: end-to-end metrics as medians over passes
// and repetitions.
func (r runner) measure(names []metricSpec) (result, error) {
	passes, budget, maxReps := r.passPlan()
	var ps []*passResult
	start := time.Now()
	more := func(i int) bool {
		if passes > 0 {
			return i < passes
		}
		return i == 0 || time.Since(start) < time.Duration(r.seconds)*time.Second
	}
	for i := 0; more(i); i++ {
		p, err := r.spawn(budget, maxReps, false)
		if err != nil {
			return result{}, err
		}
		ps = append(ps, p)
	}

	out := result{Metrics: make(map[string]metricValue)}
	var setups, walls, cpus, rss []float64
	ops := 0
	// Workloads whose set-up is only process start and connection set-up
	// take it several more times in set-up-only passes, for a steady
	// median.
	if r.workload == "paper-grid" || r.workload == "dist-grid" {
		for i := 0; i < 15; i++ {
			p, err := r.spawn(0, 0, false)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, p.SetupS)
		}
	}
	for i, p := range ps {
		out.Attempted += p.Attempted
		out.Failed += p.Failed
		setups = append(setups, p.SetupS)
		walls = append(walls, p.Walls...)
		cpus = append(cpus, p.CPUs...)
		rss = append(rss, p.PeakRSSMB)
		ops += p.Ops
		// Every pass runs the same inputs, so every pass must agree.
		for _, err := range checkSameDigests(ps[0].Digests, p.Digests) {
			out.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: pass %d vs pass 0: %v\n", i, err)
		}
	}
	fmt.Printf("%s: %d passes, %d timed repetitions, %d operations, %d simulator events in pass 0, result digest %s\n",
		r.workload, len(ps), len(walls), ops, ps[0].Events, digest(ps[0].Digests))

	values := map[string]float64{
		"setup_s":     median(setups),
		"wall_s":      median(walls),
		"cpu_s":       median(cpus),
		"peak_rss_mb": median(rss),
	}
	if r.workload == "serve-open" {
		for k, v := range ps[0].Metrics {
			values[k] = v
		}
	}
	for _, m := range names {
		if v, ok := values[m.Name]; ok {
			out.Metrics[m.Name] = metricValue{v, m.Unit}
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s not measured\n", r.workload, m.Name)
		}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	return out, nil
}

// traced is the traced run: one untraced and one traced pass of the same
// inputs. The traced pass's decomposed results must equal the untraced
// ones; its spans give the per-layer metrics.
func (r runner) traced(names []metricSpec) (result, error) {
	plain, err := r.spawn(0, 1, false)
	if err != nil {
		return result{}, err
	}
	tp, err := r.spawn(0, 1, true)
	if err != nil {
		return result{}, err
	}
	out := result{
		Attempted: plain.Attempted + tp.Attempted,
		Failed:    plain.Failed + tp.Failed,
		Metrics:   make(map[string]metricValue),
	}
	for _, err := range checkSameDigests(plain.Digests, tp.Digests) {
		out.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: traced vs untraced: %v\n", err)
	}
	values := tp.Metrics
	if values == nil {
		values = map[string]float64{}
	}
	// Serving latency and capacity come from the untraced pass: the
	// traced daemon runs with its observability layer on.
	for _, k := range serveLatencyMetrics {
		if v, ok := plain.Metrics[k]; ok {
			values["serve."+k] = v
		}
	}
	// Overhead of tracing on the timed part. serve-open's steps last a
	// fixed time, so its ratio compares the daemon's CPU instead.
	if r.workload == "serve-open" {
		values["trace.overhead_ratio"] = ratio(sum(tp.CPUs), sum(plain.CPUs))
	} else {
		values["trace.overhead_ratio"] = ratio(sum(tp.Walls), sum(plain.Walls))
	}
	fmt.Printf("%s traced: %d simulator events, result digest %s (untraced %s)\n",
		r.workload, tp.Events, digest(tp.Digests), digest(plain.Digests))
	active := map[string]bool{"trace": true}
	for _, l := range layersOf[r.workload] {
		active[l] = true
	}
	for _, m := range names {
		v, ok := values[m.Name]
		switch {
		case ok:
		case !active[layerOf(m.Name)]:
			v = 0
		default:
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s absent (counter missing)\n", r.workload, m.Name)
			continue
		}
		out.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	return out, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// child is one pass in a fresh process: it prints its report as the last
// line of its standard output.
func child(argv []string) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	var o childOpts
	var t0 int64
	fs.StringVar(&o.workload, "workload", "", "")
	fs.Uint64Var(&o.seed, "seed", 1, "")
	fs.IntVar(&o.seconds, "seconds", 20, "")
	fs.DurationVar(&o.budget, "budget", 0, "")
	fs.IntVar(&o.maxReps, "max-reps", 1, "")
	fs.Int64Var(&t0, "t0", 0, "")
	fs.StringVar(&o.root, "root", ".", "")
	fs.StringVar(&o.serveBin, "serve-bin", "", "")
	fs.DurationVar(&o.p99Limit, "p99-limit", 20*time.Millisecond, "")
	fs.BoolVar(&o.traced, "trace", false, "")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	body := workloads[o.workload]
	if body == nil {
		fmt.Fprintln(os.Stderr, "perfbench child: unknown workload", o.workload)
		return 2
	}
	o.t0 = time.Unix(0, t0)
	var tr *Tracer
	if o.traced {
		tr = NewTracer(fmt.Sprintf("%s-seed%d-pid%d", o.workload, o.seed, os.Getpid()))
	}
	p := body(o, tr)
	if tr != nil {
		if err := writeSpans(tr, o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child: spans:", err)
		}
	}
	line, err := json.Marshal(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// writeSpans writes the traced run's spans, with self times, under the
// checkout's build directory once the run has ended.
func writeSpans(tr *Tracer, o childOpts) error {
	dir := filepath.Join(o.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, tr.run+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	var b strings.Builder
	for name, lt := range Totals(tr.Spans()) {
		fmt.Fprintf(&b, " %s: n=%d wall=%.3fs self=%.3fs cpu=%.3fs;", name, lt.N, lt.Wall.Seconds(), lt.Self.Seconds(), lt.CPU.Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s;%s\n", path, b.String())
	return nil
}
