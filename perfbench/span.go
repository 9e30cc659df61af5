package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// Span is one timed call into a layer's public function, recorded by the
// benchmark around the call (the program itself is not instrumented).
// Times are offsets from the tracer's start; CPU is the process-wide
// user+sys delta across the call, and Counters holds the obs.Default
// counters that moved during it.
type Span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"` // 0 = top level
	Run      string           `json:"run"`
	Name     string           `json:"name"`
	Start    time.Duration    `json:"start_ns"`
	End      time.Duration    `json:"end_ns"`
	CPU      time.Duration    `json:"cpu_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. CPU deltas only
// attribute cleanly when spans that measure CPU do not overlap, so the
// traced runs call layers one at a time.
type Tracer struct {
	run      string
	t0       time.Time
	cpu      func() time.Duration
	counters func() map[string]int64

	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a tracer for one run that reads the process CPU clock
// and the default metrics registry.
func NewTracer(run string) *Tracer {
	return &Tracer{run: run, t0: time.Now(), cpu: processCPU, counters: defaultCounters}
}

// Active is an open span; End closes it.
type Active struct {
	t      *Tracer
	idx    int
	cpu0   time.Duration
	before map[string]int64
}

// Start opens a span under parent (nil for top level).
func (t *Tracer) Start(parent *Active, name string) *Active {
	before := t.counters()
	cpu0 := t.cpu()
	t.mu.Lock()
	defer t.mu.Unlock()
	p := 0
	if parent != nil {
		p = t.spans[parent.idx].ID
	}
	t.spans = append(t.spans, Span{
		ID: len(t.spans) + 1, Parent: p, Run: t.run, Name: name,
		Start: time.Since(t.t0),
	})
	return &Active{t: t, idx: len(t.spans) - 1, cpu0: cpu0, before: before}
}

// End closes the span, recording its end time, CPU delta and counter
// deltas.
func (a *Active) End() {
	end := time.Since(a.t.t0)
	cpu := a.t.cpu() - a.cpu0
	after := a.t.counters()
	a.t.mu.Lock()
	defer a.t.mu.Unlock()
	s := &a.t.spans[a.idx]
	s.End, s.CPU = end, cpu
	for name, v := range after {
		if d := v - a.before[name]; d != 0 {
			if s.Counters == nil {
				s.Counters = make(map[string]int64)
			}
			s.Counters[name] = d
		}
	}
}

// Count adds n to a count the benchmark keeps on the span (rows packed,
// traces collected), stored beside the counter deltas under "bench.".
func (a *Active) Count(name string, n int64) {
	a.t.mu.Lock()
	defer a.t.mu.Unlock()
	s := &a.t.spans[a.idx]
	if s.Counters == nil {
		s.Counters = make(map[string]int64)
	}
	s.Counters["bench."+name] += n
}

// Spans returns a copy of the recorded spans in start order.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteJSONL writes one span per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// processCPU is the process's user+sys CPU time from getrusage.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func defaultCounters() map[string]int64 { return obs.Default.Snapshot().Counters }

// counterDelta reads a counter by name from two snapshots. A counter the
// program no longer registers is reported absent (ok=false), not fatal.
func counterDelta(before, after map[string]int64, name string) (int64, bool) {
	a, ok := after[name]
	if !ok {
		return 0, false
	}
	return a - before[name], true
}

// SelfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children are merged first).
func SelfTimes(spans []Span) map[int]time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
		var covered, curLo, curHi time.Duration
		open := false
		for _, c := range cs {
			lo, hi := max(c.lo, s.Start), min(c.hi, s.End)
			if hi <= lo {
				continue
			}
			if open && lo <= curHi {
				curHi = max(curHi, hi)
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = lo, hi, true
		}
		if open {
			covered += curHi - curLo
		}
		out[s.ID] = s.Dur() - covered
	}
	return out
}

// layerTotals sums wall and CPU time and counter deltas over every span of
// one name.
type layerTotals struct {
	N        int
	Wall     time.Duration
	Self     time.Duration
	CPU      time.Duration
	Counters map[string]int64
	Walls    []time.Duration
}

// Totals groups spans by name.
func Totals(spans []Span) map[string]*layerTotals {
	self := SelfTimes(spans)
	out := make(map[string]*layerTotals)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{Counters: make(map[string]int64)}
			out[s.Name] = lt
		}
		lt.N++
		lt.Wall += s.Dur()
		lt.Self += self[s.ID]
		lt.CPU += s.CPU
		lt.Walls = append(lt.Walls, s.Dur())
		for k, v := range s.Counters {
			lt.Counters[k] += v
		}
	}
	return out
}
