package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Open-loop rates (requests/s). light is sparse enough that nearly every
// request waits out the daemon's batch window alone; heavy arrives often
// enough for requests to share batches.
// The ladder is heavy × 1.1^k, walked four rungs at a time until a rung
// misses the latency limit, then one rung at a time from the last rung
// that met it.
const (
	lightRate    = 1000
	heavyRate    = 2500
	ladderRatio  = 1.1
	ladderRungs  = 36
	ladderStride = 4
	ladderStep   = 500 * time.Millisecond
	daemonSpawns = 3
	serveRounds  = 6
)

// daemon is one cmd/serve child process.
type daemon struct {
	cmd      *exec.Cmd
	addr     string
	debug    string
	ready    time.Duration // spawn until listening
	stderrWG sync.WaitGroup
}

// startDaemon spawns the shipped daemon with its default flags plus the
// scale and seed, and waits for it to report its listening address.
func startDaemon(bin string, seed uint64, traced bool) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-scale", "small", "-seed", strconv.FormatUint(seed, 10)}
	if traced {
		args = append(args, "-httpaddr", "127.0.0.1:0")
	}
	d := &daemon{cmd: exec.Command(bin, args...)}
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	listening := make(chan string, 1)
	d.stderrWG.Add(1)
	go func() {
		defer d.stderrWG.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "obs: debug server on http://"); ok {
				d.debug, _, _ = strings.Cut(rest, "/")
			}
			if rest, ok := strings.CutPrefix(line, "serve: listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				listening <- addr
			}
		}
		close(listening)
	}()
	select {
	case addr, ok := <-listening:
		if !ok {
			d.stop()
			return nil, errors.New("daemon exited before listening")
		}
		d.addr, d.ready = addr, time.Since(t0)
		return d, nil
	case <-time.After(120 * time.Second):
		d.stop()
		return nil, errors.New("daemon did not start listening within 120s")
	}
}

// stop asks the daemon to shut down and kills it if it does not. Signal,
// Kill and Wait errors are dropped: the daemon may already have exited,
// and its exit status after SIGTERM says nothing about the run.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	d.stderrWG.Wait()
}

// peakRSS is the daemon's resident-set high-water mark so far in MiB
// (VmHWM in /proc).
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpu is the daemon's user+sys CPU so far, from /proc (clock ticks of
// 10 ms).
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// metrics scrapes the daemon's registry from its debug endpoint (traced
// runs only).
func (d *daemon) metrics() (obs.Snapshot, error) {
	resp, err := http.Get("http://" + d.debug + "/debug/vars")
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer resp.Body.Close()
	var v struct {
		Obs obs.Snapshot `json:"obs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return obs.Snapshot{}, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return v.Obs, nil
}

// loadGen sends open-loop requests over two pipelined connections.
// serve.Client.Classify blocks until its answer, so every request gets its
// own goroutine and the schedule never waits for the daemon.
type loadGen struct {
	seed    uint64
	clients []*serve.Client
	corpus  [][]float64
	want    []int
	d       *daemon
}

// stepResult is one fixed-rate step. Latencies are microseconds from each
// request's due time; late is how far behind schedule the generator sent.
type stepResult struct {
	Rate    float64
	Lat     []float64
	Late    []float64
	Errs    []error
	Wall    time.Duration
	CPU     time.Duration
	Timeout bool
}

func (g *loadGen) step(idx int, rate float64, dur time.Duration) stepResult {
	sched := schedule(g.seed, idx, rate, dur, len(g.corpus))
	n := len(sched.Offsets)
	r := stepResult{Rate: rate, Lat: make([]float64, n), Late: make([]float64, n), Errs: make([]error, n)}
	cpu0, _ := g.d.cpu()
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for i, off := range sched.Offsets {
		due := start.Add(off)
		sleepUntil(due)
		r.Late[i] = float64(time.Since(due)) / 1e3
		tr := sched.Trace[i]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := g.clients[i%len(g.clients)].Classify(g.corpus[tr])
			r.Lat[i] = float64(time.Since(due)) / 1e3
			if err == nil {
				err = checkLabel(i, res.Label, g.want[tr])
			}
			r.Errs[i] = err
		}(i)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(dur + 60*time.Second):
		// A hung daemon: closing the connections fails every pending call.
		r.Timeout = true
		for _, c := range g.clients {
			c.Close()
		}
		<-done
	}
	r.Wall = time.Since(start)
	cpu1, _ := g.d.cpu()
	r.CPU = cpu1 - cpu0
	return r
}

// sleepUntil blocks until t in nanosleep(2). The runtime timer behind
// time.Sleep can overshoot sub-millisecond waits by a whole millisecond
// on an idle host, which would be charged to the daemon as latency.
func sleepUntil(t time.Time) {
	for w := time.Until(t); w > 0; w = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(w))
		syscall.Nanosleep(&ts, nil) // on EINTR the loop sleeps the rest
	}
}

// wrong counts responses that are errors other than admission sheds, or
// carry a label the offline model disagrees with.
func (r stepResult) wrong() []error {
	var out []error
	for _, err := range r.Errs {
		if err != nil && !isShed(err) {
			out = append(out, err)
		}
	}
	return out
}

func (r stepResult) sheds() int {
	n := 0
	for _, err := range r.Errs {
		if isShed(err) {
			n++
		}
	}
	return n
}

func isShed(err error) bool {
	return errors.Is(err, serve.ErrOverloaded) || errors.Is(err, serve.ErrDeadlineExceeded)
}

// meets reports whether the step sustained its rate: every request
// answered correctly, p99 latency and generator lateness within the
// limit, and no growing backlog (the last tenth of requests still have a
// median latency within the limit). The reason names what missed.
func (r stepResult) meets(limit time.Duration) (bool, string) {
	lim := float64(limit) / 1e3
	if r.Timeout || len(r.Lat) == 0 || r.sheds() > 0 || len(r.wrong()) > 0 {
		return false, fmt.Sprintf("%d sheds, %d errors", r.sheds(), len(r.wrong()))
	}
	p99, ok := percentile(sortedCopy(r.Lat), 99)
	late, _ := percentile(sortedCopy(r.Late), 99)
	tail := median(r.Lat[len(r.Lat)*9/10:])
	switch {
	case !ok:
		return false, fmt.Sprintf("%d samples cannot give a p99", len(r.Lat))
	case p99 > lim:
		return false, fmt.Sprintf("p99 %.0fus over the limit", p99)
	case late > lim:
		return false, fmt.Sprintf("generator p99 lateness %.0fus over the limit", late)
	case tail > lim:
		return false, fmt.Sprintf("backlog: final tenth median %.0fus over the limit", tail)
	}
	return true, ""
}

// ladderRate is rung k of the fixed rate ladder.
func ladderRate(k int) float64 {
	r := float64(heavyRate)
	for i := 0; i < k; i++ {
		r *= ladderRatio
	}
	return float64(int(r))
}

// serveLatencyMetrics are the client-side figures of one serve-open pass.
// Host scheduling noise on a shared 2-vCPU machine moves them by more than
// any regression bound can absorb, so the traced run reports them as
// per-layer metrics ("serve." + name) rather than end-to-end ones.
var serveLatencyMetrics = []string{"p50_us_light", "p99_us_light", "p50_us_heavy", "p99_us_heavy", "max_rps"}

// runServeOpen measures the shipped serving daemon under open-loop load.
func runServeOpen(o childOpts, tr *Tracer) *passResult {
	p := newPass(o)
	// Set-up 1: the offline reference model (same scenario, scale, seed,
	// classifier and tier as the daemon's defaults) and the held-out
	// request corpus it labels.
	t0 := time.Now()
	tier, err := core.ParseServingTier("int8")
	var sm *core.ServingModel
	if err == nil {
		sm, err = core.BuildServingModel(core.ServingScenario(), serveTrainScale(o.seed), "logreg", tier)
	}
	var corpus [][]float64
	if err == nil {
		var ds *trace.Dataset
		if tr != nil {
			ds, err = tracedCollect(tr, nil, core.ServingScenario(), serveHeldOutScale(o.seed))
		} else {
			ds, err = core.CollectDataset(core.ServingScenario(), serveHeldOutScale(o.seed))
		}
		if err == nil {
			for _, t := range ds.Traces {
				corpus = append(corpus, t.Values)
			}
		}
	}
	if err != nil {
		p.failAll(1, fmt.Errorf("corpus: %w", err))
		return p
	}
	sess := sm.Model.NewSession()
	want := make([]int, len(corpus))
	var modelUS []float64
	for rep := 0; rep < 20; rep++ {
		for i, x := range corpus {
			t := time.Now()
			want[i] = offlineLabel(sess, sm, x)
			modelUS = append(modelUS, float64(time.Since(t))/1e3)
		}
	}
	sess.Close()
	corpusS := time.Since(t0).Seconds()
	p.Digests = []string{digest(want)}

	// Set-up 2: spawn the daemon several times; the last one is measured.
	var d *daemon
	var spawnS []float64
	for k := 0; k < daemonSpawns; k++ {
		if d != nil {
			d.stop()
		}
		if d, err = startDaemon(o.serveBin, o.seed, tr != nil); err != nil {
			p.failAll(1, err)
			return p
		}
		spawnS = append(spawnS, d.ready.Seconds())
	}
	p.SetupS = corpusS + median(spawnS)

	g := &loadGen{seed: o.seed, corpus: corpus, want: want, d: d}
	for i := 0; i < 2; i++ {
		c, err := serve.Dial(d.addr)
		if err != nil {
			d.stop()
			p.failAll(1, fmt.Errorf("dial: %w", err))
			return p
		}
		g.clients = append(g.clients, c)
	}
	defer func() {
		for _, c := range g.clients {
			c.Close()
		}
		d.stop()
	}()

	// count books a step's requests as operations; every error, shed or
	// wrong label among them is a failure.
	count := func(name string, r stepResult) {
		p.Attempted += len(r.Lat)
		p.Ops += len(r.Lat)
		for _, err := range r.Errs {
			if err != nil {
				p.fail(fmt.Errorf("%s: %w", name, err))
			}
		}
		if r.Timeout {
			p.fail(fmt.Errorf("%s: daemon stopped answering", name))
		}
	}

	warm := g.step(0, lightRate, 300*time.Millisecond)
	count("warm-up", warm)

	// Light and heavy alternate in rounds, and each latency metric is the
	// median over rounds of that round's exact percentile: a stretch of
	// host noise spoils a round, not the figure.
	// Slice lengths give both loads the same number of requests per round
	// (about 2400 in a 20 s run, so 24 lie beyond each round's p99).
	heavySlice := max(time.Duration(o.seconds)*time.Second*lightRate/((lightRate+heavyRate)*serveRounds), 500*time.Millisecond)
	lightSlice := heavySlice * heavyRate / lightRate
	var lights, heavies []stepResult
	var snaps [][2]obs.Snapshot // daemon registry around each heavy slice
	var first, last obs.Snapshot
	if tr != nil {
		first, _ = d.metrics()
	}
	for i := 0; i < serveRounds; i++ {
		l := g.step(1+2*i, lightRate, lightSlice)
		count("light", l)
		lights = append(lights, l)
		var pair [2]obs.Snapshot
		if tr != nil {
			pair[0], _ = d.metrics()
		}
		h := g.step(2+2*i, heavyRate, heavySlice)
		count("heavy", h)
		heavies = append(heavies, h)
		if tr != nil {
			pair[1], _ = d.metrics()
			snaps = append(snaps, pair)
		}
	}
	if tr != nil {
		last, _ = d.metrics()
	}
	// Peak RSS over set-up and the fixed-rate rounds: the ladder drives
	// the daemon into overload, where queued requests would dominate it.
	peak, err := d.peakRSS()
	if err != nil {
		p.fail(fmt.Errorf("peak RSS: %w", err))
	}

	// The ladder: rungs that meet the limit count as operations; a rung
	// that misses it twice ends the climb, and only its wrong answers count
	// as failures (its sheds are the signal being sought).
	maxRPS := 0.0
	meets := func(r stepResult) bool {
		ok, why := r.meets(o.p99Limit)
		if !ok {
			fmt.Fprintf(os.Stderr, "serve-open: %.0f req/s missed the limit: %s\n", r.Rate, why)
		}
		return ok
	}
	majority := func(rs []stepResult) bool {
		n := 0
		for _, r := range rs {
			if meets(r) {
				n++
			}
		}
		return 2*n >= len(rs)
	}
	if majority(lights) {
		maxRPS = lightRate
	}
	if majority(heavies) {
		maxRPS = heavyRate
	}
	best, stride, missed := 0, ladderStride, ladderRungs+1
	for k := stride; k <= ladderRungs && k < missed; k += stride {
		// A rung gets a second try, so one stall of the shared host does
		// not end the climb; real overload misses both.
		r := g.step(100+2*k, ladderRate(k), ladderStep)
		if !meets(r) {
			r = g.step(101+2*k, ladderRate(k), ladderStep)
		}
		if !meets(r) {
			for _, err := range r.wrong() {
				p.Attempted++
				p.fail(fmt.Errorf("ladder %.0f/s: %w", r.Rate, err))
			}
			if stride == 1 {
				break
			}
			k, stride, missed = best, 1, k
			continue
		}
		count(fmt.Sprintf("ladder %.0f/s", r.Rate), r)
		best, maxRPS = k, r.Rate
	}
	fmt.Fprintf(os.Stderr, "serve-open: max_rps %.0f\n", maxRPS)

	lightP50, lightP99, _ := reportLatency("light", lights)
	heavyP50, heavyP99, heavyPooled := reportLatency("heavy", heavies)
	for i := range lights {
		p.addRep(lights[i].Wall+heavies[i].Wall, lights[i].CPU+heavies[i].CPU)
	}
	p.Metrics = map[string]float64{
		"wall_s":       sum(p.Walls),
		"cpu_s":        sum(p.CPUs),
		"peak_rss_mb":  peak,
		"p50_us_light": lightP50, "p99_us_light": lightP99,
		"p50_us_heavy": heavyP50, "p99_us_heavy": heavyP99,
		"max_rps": maxRPS,
	}
	if tr != nil {
		for k, v := range perLayer(tr.Spans()) {
			if layerOf(k) == "collect" || layerOf(k) == "dscache" {
				p.Metrics[k] = v
			}
		}
		mp50, _ := percentile(sortedCopy(modelUS), 50)
		p.Metrics["serve.model_p50_us"] = mp50
		p.Metrics["serve.exact_p99_us"] = heavyPooled
		var late []float64
		for _, h := range heavies {
			late = append(late, h.Late...)
		}
		p.Metrics["loadgen.late_p99_us"], _ = percentile(sortedCopy(late), 99)
		daemonLayer(p.Metrics, first, last, snaps)
	}
	return p
}

// offlineLabel scores one raw trace with the frozen model directly:
// preprocess, zero-pad or trim to the trained input length, score, argmax.
// The reference shares no code with the serving path it checks.
func offlineLabel(sess *ml.InferSession, sm *core.ServingModel, x []float64) int {
	v := sm.Prep.Apply(x)
	if len(v) != sm.InputLen {
		d := make([]float64, sm.InputLen)
		copy(d, v)
		v = d
	}
	out := make([][]float64, 1)
	sess.PredictBatchInto([]*ml.Tensor{ml.FromSeries(v)}, 1, out)
	return stats.ArgMax(out[0])
}

// reportLatency prints a load level's exact percentiles with their
// sample counts and returns the metrics: the medians over rounds of each
// round's exact p50 and p99, and the pooled exact p99 of all rounds.
func reportLatency(name string, rounds []stepResult) (p50, p99, pooled float64) {
	var all, p50s, p99s, late []float64
	for _, r := range rounds {
		s := sortedCopy(r.Lat)
		v50, _ := percentile(s, 50)
		v99, ok := percentile(s, 99)
		if !ok {
			fmt.Fprintf(os.Stderr, "serve-open: %s round has %d samples, too few for a p99\n", name, len(s))
		}
		p50s, p99s = append(p50s, v50), append(p99s, v99)
		all = append(all, r.Lat...)
		late = append(late, r.Late...)
	}
	s := sortedCopy(all)
	pooled50, _ := percentile(s, 50)
	pooled, _ = percentile(s, 99)
	lateP99, _ := percentile(sortedCopy(late), 99)
	fmt.Printf("serve-open %s %.0f req/s: %d rounds, n=%d; per-round p50 %s us, p99 %s us; pooled p50=%.1fus p99=%.1fus (highest reportable p%g); generator-late-p99=%.1fus\n",
		name, rounds[0].Rate, len(rounds), len(s), fmtList(p50s), fmtList(p99s),
		pooled50, pooled, highestReportable(len(s), 50, 90, 99, 99.9), lateP99)
	return median(p50s), median(p99s), pooled
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 0, 64)
	}
	return strings.Join(parts, "/")
}

// daemonLayer reads the daemon's own view from its registry: batch width
// and its histogram p99 over the heavy slices (snapshot pairs around
// each), sheds over all rounds. Missing counters leave metrics absent.
func daemonLayer(m map[string]float64, first, last obs.Snapshot, heavy [][2]obs.Snapshot) {
	var reqs, batches int64
	okReq, okBatch := true, true
	var hist *obs.HistogramSnapshot
	for _, pair := range heavy {
		r, ok1 := counterDelta(pair[0].Counters, pair[1].Counters, ctrServeReqs)
		b, ok2 := counterDelta(pair[0].Counters, pair[1].Counters, ctrServeBatch)
		reqs, batches, okReq, okBatch = reqs+r, batches+b, okReq && ok1, okBatch && ok2
		h0, ok0 := pair[0].Histograms[histServeE2E]
		h1, ok1 := pair[1].Histograms[histServeE2E]
		if !ok0 || !ok1 || len(h0.Counts) != len(h1.Counts) {
			continue
		}
		if hist == nil {
			hist = &obs.HistogramSnapshot{Bounds: h1.Bounds, Counts: make([]int64, len(h1.Counts))}
		}
		for i := range h1.Counts {
			hist.Counts[i] += h1.Counts[i] - h0.Counts[i]
		}
		hist.Count += h1.Count - h0.Count
	}
	if okReq && okBatch {
		m["serve.mean_batch"] = ratio(float64(reqs), float64(batches))
	}
	if hist != nil {
		m["serve.reported_p99_us"] = hist.Quantile(0.99)
	}
	shedQ, ok1 := counterDelta(first.Counters, last.Counters, ctrShedQueue)
	shedD, ok2 := counterDelta(first.Counters, last.Counters, ctrShedDead)
	if ok1 && ok2 {
		m["serve.shed"] = float64(shedQ + shedD)
	}
}
