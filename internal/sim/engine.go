// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulated subsystems (CPU cores, interrupt controllers, browsers,
// attackers) schedule callbacks on a shared virtual clock measured in
// nanoseconds. Determinism is guaranteed by a stable tie-break on insertion
// order and by seeding all randomness through named Stream values derived
// from a single root seed.
package sim

import (
	"fmt"
	"math/bits"
)

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
	now   Time
	seq   uint64
	heap  []entry
	slots []slot
	free  int32 // head of the slot free list; -1 when empty
	// hole is set while a callback runs: heap[0] is still the firing
	// entry, and the callback's first push takes its place.
	hole    bool
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
	e.stopped, e.hole = false, false
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

// before reports 1 if a sorts before b and 0 otherwise. Entries are
// ordered by (at, seq) read as one 128-bit unsigned key, at the high word:
// at is never negative, so the borrow out of a − b is set exactly when a
// sorts first. Two subtractions and no branch.
func before(a, b *entry) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return int(borrow)
}

// less reports whether a sorts before b.
func less(a, b *entry) bool { return before(a, b) != 0 }

// push adds an entry. While a callback runs (hole set), its first push
// replaces the firing entry at the root and sifts down once; otherwise the
// entry is appended and sifted up the 4-ary heap.
func (e *Engine) push(en entry) {
	if e.hole {
		// The heap held this many entries before the fire, so the
		// high-water mark already covers it.
		e.hole = false
		e.siftDown(en)
		return
	}
	e.heap = append(e.heap, en)
	i := len(e.heap) - 1
	if i >= e.maxPend {
		e.maxPend = i + 1
	}
	for i > 0 {
		p := (i - 1) / 4
		if !less(&en, &e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		i = p
	}
	e.heap[i] = en
}

// siftDown places en at the root and moves it down to its place. A node
// with all four children picks the least in a two-round tournament whose
// winners are computed from the compare bits, without a branch.
func (e *Engine) siftDown(en entry) {
	h := e.heap
	n := len(h)
	i := 0
	for {
		c := i*4 + 1
		var best int
		if c+3 < n {
			a := c + before(&h[c+1], &h[c])
			b := c + 2 + before(&h[c+3], &h[c+2])
			best = a + (b-a)*before(&h[b], &h[a])
		} else if c < n {
			best = c
			for j := c + 1; j < n; j++ {
				if less(&h[j], &h[best]) {
					best = j
				}
			}
		} else {
			break
		}
		if !less(&h[best], &en) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = en
}

// popRoot removes the root entry.
func (e *Engine) popRoot() {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(last)
	}
}

// closeHole removes the firing entry if its callback scheduled nothing.
func (e *Engine) closeHole() {
	if e.hole {
		e.hole = false
		e.popRoot()
	}
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

// Chain runs fn at first, then again at each time fn returns for as long
// as it returns ok. It stands for a callback whose last action is to
// schedule itself again: the call takes the seq Schedule(first, …) would,
// and each re-arm takes its seq when fn returns, exactly where a trailing
// Schedule(next, …) took it, so every (at, seq) key is unchanged. A time in
// the past is clamped to the present. The source owns one slab slot that
// each fire re-arms, so a chain allocates nothing per event.
func (e *Engine) Chain(first Time, fn func() (next Time, ok bool)) {
	id := e.alloc()
	e.slots[id].periodic = true
	e.slots[id].fn = func() {
		if next, ok := fn(); ok {
			e.schedule(next, id)
		} else {
			e.release(id)
		}
	}
	e.schedule(first, id)
}

// Stop halts Run after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// fire executes the minimum entry's callback, recycling one-shot slots
// before the callback runs so rescheduling can reuse them. The entry stays
// at the root as a hole while the callback runs: the callback's first push
// takes its place (one sift-down instead of a pop plus a push), and if the
// callback pushes nothing the root is popped after it returns.
func (e *Engine) fire() {
	en := e.heap[0]
	e.hole = true
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
	e.closeHole()
}

// Run executes events until the queue is empty or the clock would pass
// `until`. Events scheduled exactly at `until` are executed. It returns the
// final clock value, which is min(until, time of last event) but never less
// than the starting clock.
func (e *Engine) Run(until Time) Time {
	e.closeHole() // a callback may run the engine itself
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
	e.closeHole()
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		e.fire()
	}
	return e.now
}

// Pending reports the number of events waiting in the queue. Inside a
// callback the firing event no longer counts.
func (e *Engine) Pending() int {
	if e.hole {
		return len(e.heap) - 1
	}
	return len(e.heap)
}

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
// A ticker is a Chain: it owns a single slab slot for its whole lifetime,
// and each fire re-arms that slot, so steady-state ticking performs no
// allocation at all.
func (e *Engine) Tick(start Time, period Duration, fn func(now Time)) *Ticker {
	if period <= 0 {
		panic("sim: Tick period must be positive")
	}
	t := &Ticker{}
	next := start
	e.Chain(start, func() (Time, bool) {
		if t.cancelled {
			return 0, false
		}
		fn(e.now)
		next += period
		return next, true
	})
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
