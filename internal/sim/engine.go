// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulated subsystems (CPU cores, interrupt controllers, browsers,
// attackers) schedule callbacks on a shared virtual clock measured in
// nanoseconds. Determinism is guaranteed by a stable tie-break on insertion
// order and by seeding all randomness through named Stream values derived
// from a single root seed.
package sim

import "fmt"

// Time is a point on the virtual clock, in nanoseconds since simulation start.
type Time int64

// Common durations expressed on the virtual clock.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Duration is a span of virtual time, in nanoseconds.
type Duration = Time

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds reports t as floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// entry is one pending event in the priority queue. Entries are stored by
// value — the queue is an inline 4-ary heap, so pushing and popping moves
// 24-byte records inside one backing array instead of allocating per event.
// The callback lives in a slab slot referenced by index, which lets periodic
// sources keep one slot alive across fires (re-arm) while one-shot slots
// recycle through a free list.
type entry struct {
	at   Time
	seq  uint64 // insertion order; breaks ties deterministically
	slot int32
}

// slot holds one scheduled callback. next links the free list when the slot
// is unused.
type slot struct {
	fn       func()
	periodic bool
	next     int32
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	heap    []entry
	slots   []slot
	free    int32 // head of the slot free list; -1 when empty
	stopped bool
	maxPend int // high-water mark of len(heap)
	// Processed counts events executed since creation (or the last Reset);
	// useful for budget checks and performance diagnostics.
	Processed uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{free: -1}
}

// Reset returns the engine to its initial state — clock at zero, queue
// empty, counters cleared — while keeping the heap and slab allocations for
// reuse. A reset engine behaves identically to a fresh NewEngine().
func (e *Engine) Reset() {
	e.now, e.seq, e.Processed = 0, 0, 0
	e.stopped = false
	e.maxPend = 0
	e.heap = e.heap[:0]
	clear(e.slots) // release retained closures
	e.slots = e.slots[:0]
	e.free = -1
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// alloc takes a slot from the free list, growing the slab only when empty.
func (e *Engine) alloc() int32 {
	if id := e.free; id >= 0 {
		e.free = e.slots[id].next
		return id
	}
	e.slots = append(e.slots, slot{})
	return int32(len(e.slots) - 1)
}

// release returns a slot to the free list and drops its closure reference.
func (e *Engine) release(id int32) {
	e.slots[id] = slot{next: e.free}
	e.free = id
}

func (e *Engine) less(i, j int) bool {
	a, b := &e.heap[i], &e.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends an entry and sifts it up the 4-ary heap.
func (e *Engine) push(en entry) {
	e.heap = append(e.heap, en)
	i := len(e.heap) - 1
	if i >= e.maxPend {
		e.maxPend = i + 1
	}
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(i, p) {
			break
		}
		e.heap[i], e.heap[p] = e.heap[p], e.heap[i]
		i = p
	}
}

// pop removes and returns the minimum entry.
func (e *Engine) pop() entry {
	top := e.heap[0]
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	i := 0
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if e.less(j, best) {
				best = j
			}
		}
		if !e.less(best, i) {
			break
		}
		e.heap[i], e.heap[best] = e.heap[best], e.heap[i]
		i = best
	}
	return top
}

// schedule pushes a callback slot at the given time, clamping the past to
// the present (the event runs "immediately", after currently pending events
// at the same timestamp).
func (e *Engine) schedule(at Time, id int32) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.push(entry{at: at, seq: e.seq, slot: id})
}

// Schedule runs fn at the given absolute virtual time. Scheduling in the past
// is clamped to the present.
func (e *Engine) Schedule(at Time, fn func()) {
	id := e.alloc()
	e.slots[id].fn = fn
	e.schedule(at, id)
}

// After runs fn after d nanoseconds of virtual time.
func (e *Engine) After(d Duration, fn func()) { e.Schedule(e.now+d, fn) }

// Stop halts Run after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// fire pops the minimum entry and executes its callback, recycling one-shot
// slots before the callback runs so rescheduling can reuse them.
func (e *Engine) fire() {
	en := e.pop()
	s := &e.slots[en.slot]
	fn := s.fn
	if !s.periodic {
		e.release(en.slot)
	}
	if en.at > e.now {
		e.now = en.at
	}
	e.Processed++
	fn()
}

// Run executes events until the queue is empty or the clock would pass
// `until`. Events scheduled exactly at `until` are executed. It returns the
// final clock value, which is min(until, time of last event) but never less
// than the starting clock.
func (e *Engine) Run(until Time) Time {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		if e.heap[0].at > until {
			break
		}
		e.fire()
	}
	if until > e.now {
		e.now = until
	}
	return e.now
}

// RunAll executes every pending event regardless of timestamp.
func (e *Engine) RunAll() Time {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		e.fire()
	}
	return e.now
}

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.heap) }

// MaxPending reports the largest number of events that have waited in the
// queue at once since creation (or the last Reset): the heap-depth
// high-water mark, which bounds what every push and pop pays.
func (e *Engine) MaxPending() int { return e.maxPend }

// Scheduled reports the number of events scheduled since creation (or the
// last Reset), including ticker re-arms and every Repeat element. Together
// with Processed and MaxPending it is the engine's observability surface:
// callers read them after a simulation completes, so the event hot path
// itself carries no instrumentation beyond MaxPending's one compare.
func (e *Engine) Scheduled() uint64 { return e.seq }

// Ticker invokes fn every `period` starting at `start` until the engine
// stops running or cancel is called. fn receives the tick time.
type Ticker struct {
	cancelled bool
}

// Cancel stops future ticks. Safe to call multiple times.
func (t *Ticker) Cancel() { t.cancelled = true }

// Tick schedules a periodic callback. The returned Ticker cancels it.
// Periodic sources own a single slab slot for their whole lifetime: each
// fire re-arms the same slot instead of re-pushing a fresh closure, so
// steady-state ticking performs no allocation at all.
func (e *Engine) Tick(start Time, period Duration, fn func(now Time)) *Ticker {
	if period <= 0 {
		panic("sim: Tick period must be positive")
	}
	t := &Ticker{}
	id := e.alloc()
	next := start
	e.slots[id].periodic = true
	e.slots[id].fn = func() {
		if t.cancelled {
			e.release(id)
			return
		}
		fn(e.now)
		next += period
		e.schedule(next, id)
	}
	e.schedule(start, id)
	return t
}

// Repeat runs fn at start + k·period for k = 0..n-1. It is equivalent to n
// Schedule calls made now — each element gets the insertion seq that call
// would have taken (all n are reserved at once, so Scheduled() advances by
// n) and a time in the past is clamped to the present exactly as Schedule
// clamps it — but only the next element waits in the queue. Like a
// ticker, the source owns one slab slot that each fire re-arms, so the
// heap stays shallow however long the series is and re-arming allocates
// nothing.
func (e *Engine) Repeat(start Time, period Duration, n int, fn func()) {
	if period <= 0 {
		panic("sim: Repeat period must be positive")
	}
	if n <= 0 {
		return
	}
	floor, base := e.now, e.seq
	e.seq += uint64(n)
	id := e.alloc()
	k := 0
	arm := func() {
		at := start + Time(k)*period
		if at < floor {
			at = floor
		}
		e.push(entry{at: at, seq: base + uint64(k) + 1, slot: id})
	}
	e.slots[id].periodic = true
	e.slots[id].fn = func() {
		if k++; k < n {
			arm()
		} else {
			e.release(id)
		}
		fn()
	}
	arm()
}
