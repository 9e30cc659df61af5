package sim

import (
	"container/heap"
	"testing"
)

// refEvent and refHeap are the pre-rewrite event queue: a container/heap of
// pointer events ordered by (time, seq). The fuzzer drives the slab-backed
// inline heap and this reference model through identical operation
// sequences and requires identical pop order.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// refEngine reimplements the engine's Schedule/Run/Stop semantics on the
// reference heap. An event is popped before its callback runs, so maxPend
// is the high-water mark the engine's in-place root replacement must
// reproduce.
type refEngine struct {
	now     Time
	seq     uint64
	pq      refHeap
	stopped bool
	maxPend int
}

func (e *refEngine) schedule(at Time, id int) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	heap.Push(&e.pq, &refEvent{at: at, seq: e.seq, id: id})
	e.maxPend = max(e.maxPend, len(e.pq))
}

func (e *refEngine) run(until Time, fired func(id int)) {
	e.stopped = false
	for len(e.pq) > 0 && !e.stopped {
		if e.pq[0].at > until {
			break
		}
		ev := heap.Pop(&e.pq).(*refEvent)
		if ev.at > e.now {
			e.now = ev.at
		}
		fired(ev.id)
	}
	if until > e.now {
		e.now = until
	}
}

type firing struct {
	id  int
	now Time
}

// FuzzEventQueue drives random schedule/run/stop/repeat/spawn/chain
// interleavings through both queues. Every event records (its insertion
// id, the clock when it fired); the two logs must match exactly, which pins
// the (time, seq) tie-break, the clamp-past-to-present rule, and Stop
// semantics across the heap rewrite, and shows a lazily re-armed Repeat
// fires exactly like the n eager Schedule calls it stands for. Spawners
// schedule 0, 1 or 2 follow-ups from their callback, which exercises the
// engine's in-flight root (the first follow-up takes the firing entry's
// place, none pops it), and a Chain must fire like the callback with a
// trailing Schedule it stands for. Pending and MaxPending must agree with
// the reference after every run that has no Repeat series.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 10, 1, 50, 0, 10, 2, 0, 1, 255})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 2})
	f.Add([]byte{3, 7, 0, 3, 1, 20, 3, 1, 2, 1, 200})
	f.Add([]byte{2, 5, 0, 5, 0, 5, 1, 100, 1, 100})
	f.Add([]byte{4, 200, 0, 7, 1, 9, 4, 3, 3, 12, 2, 15, 1, 40, 4, 0})
	f.Add([]byte{0, 60, 1, 50, 0, 0, 4, 37, 3, 0, 1, 100}) // Repeat from the past
	f.Add([]byte{5, 2, 5, 4, 5, 3, 0, 1, 1, 30, 5, 25, 1, 60})
	f.Add([]byte{6, 9, 6, 40, 0, 12, 5, 7, 1, 20, 2, 3, 6, 3, 1, 200})
	f.Fuzz(func(t *testing.T, ops []byte) {
		eng := NewEngine()
		ref := &refEngine{}
		var gotLog, refLog []firing
		nextID := 0
		stopIDs := map[int]bool{}
		// A Repeat series queues one element where the reference queues
		// n, so queue depths are compared only on runs without one.
		repeated := false
		// refActions holds what a reference event does when it fires,
		// beyond being logged: the follow-ups its engine twin schedules.
		refActions := map[int]func(){}

		refFired := func(id int) {
			refLog = append(refLog, firing{id, ref.now})
			if stopIDs[id] {
				ref.stopped = true
			}
			if act := refActions[id]; act != nil {
				act()
			}
		}
		schedule := func(delta Time, stop bool) {
			id := nextID
			nextID++
			if stop {
				stopIDs[id] = true
			}
			eng.Schedule(eng.Now()+delta, func() {
				gotLog = append(gotLog, firing{id, eng.Now()})
				if stop {
					eng.Stop()
				}
			})
			ref.schedule(ref.now+delta, id)
		}

		// repeat makes one Repeat call on the engine and the n Schedule
		// calls it is equivalent to on the reference.
		repeat := func(arg byte) {
			n := 1 + int(arg%5)
			period := 1 + Time(arg/5%7)
			start := eng.Now() + Time(arg/35) - 3 // -3..4: may lie in the past
			first := nextID
			nextID += n
			repeated = true
			k := 0
			eng.Repeat(start, period, n, func() {
				gotLog = append(gotLog, firing{first + k, eng.Now()})
				k++
			})
			for j := 0; j < n; j++ {
				ref.schedule(start+Time(j)*period, first+j)
			}
		}

		// spawn schedules an event whose callback schedules n = arg%3
		// follow-ups, at deltas that may tie with each other and with
		// pending events.
		spawn := func(arg byte) {
			id, n := nextID, int(arg%3)
			delta, gap := Time(arg/3%8), Time(arg/24%3)
			nextID += 1 + n
			eng.Schedule(eng.Now()+delta, func() {
				gotLog = append(gotLog, firing{id, eng.Now()})
				for j := 1; j <= n; j++ {
					eng.After(Time(j)*gap, func() {
						gotLog = append(gotLog, firing{id + j, eng.Now()})
					})
				}
			})
			ref.schedule(ref.now+delta, id)
			refActions[id] = func() {
				for j := 1; j <= n; j++ {
					ref.schedule(ref.now+Time(j)*gap, id+j)
				}
			}
		}

		// chain makes one Chain call on the engine and, on the
		// reference, the self-rescheduling events it stands for. Odd
		// args also schedule a one-shot from every link before the
		// re-arm, at the re-arm's own time, so the re-arm's seq must
		// come after the one-shot's.
		chain := func(arg byte) {
			n := 1 + int(arg%4)
			gap := Time(arg / 4 % 6)
			first := eng.Now() + Time(arg/24) - 3 // may lie in the past
			side := arg%2 == 1
			links, sides := nextID, nextID+n
			nextID += 2 * n
			k := 0
			eng.Chain(first, func() (Time, bool) {
				gotLog = append(gotLog, firing{links + k, eng.Now()})
				if side {
					id := sides + k
					eng.After(gap, func() { gotLog = append(gotLog, firing{id, eng.Now()}) })
				}
				k++
				return eng.Now() + gap, k < n
			})
			for j := 0; j < n; j++ {
				refActions[links+j] = func() {
					if side {
						ref.schedule(ref.now+gap, sides+j)
					}
					if j+1 < n {
						ref.schedule(ref.now+gap, links+j+1)
					}
				}
			}
			ref.schedule(first, links)
		}

		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%7, Time(ops[i+1])
			switch op {
			case 0: // one-shot event at now+arg
				schedule(arg, false)
			case 1: // run until now+arg
				until := eng.Now() + arg
				eng.Run(until)
				ref.run(until, refFired)
				if !repeated && (eng.Pending() != len(ref.pq) || eng.MaxPending() != ref.maxPend) {
					t.Fatalf("after Run(%v): pending %d, max %d; reference %d, %d",
						until, eng.Pending(), eng.MaxPending(), len(ref.pq), ref.maxPend)
				}
			case 2: // event that stops the engine when it fires
				schedule(arg, true)
			case 3: // two events at the same timestamp (forces a tie)
				schedule(arg, false)
				schedule(arg, false)
			case 4: // a Repeat series against its eager equivalent
				repeat(ops[i+1])
			case 5: // a callback that schedules 0, 1 or 2 follow-ups
				spawn(ops[i+1])
			case 6: // a Chain against a trailing Schedule
				chain(ops[i+1])
			}
		}
		// Drain both queues completely, honouring any pending stop
		// events. A stopped Run still advances the clock to its horizon,
		// and callbacks then schedule past it, so each pass reaches one
		// horizon beyond the clock.
		const horizon = Time(1) << 40
		for eng.Pending() > 0 {
			eng.Run(eng.Now() + horizon)
		}
		for len(ref.pq) > 0 {
			ref.run(ref.now+horizon, refFired)
		}

		if len(gotLog) != len(refLog) {
			t.Fatalf("fired %d events, reference fired %d", len(gotLog), len(refLog))
		}
		for i := range gotLog {
			if gotLog[i] != refLog[i] {
				t.Fatalf("firing %d: engine %+v, reference %+v", i, gotLog[i], refLog[i])
			}
		}
		if eng.Now() != ref.now {
			t.Fatalf("clocks diverged: engine %v, reference %v", eng.Now(), ref.now)
		}
		if eng.Scheduled() != ref.seq {
			t.Fatalf("Scheduled() = %d, reference scheduled %d", eng.Scheduled(), ref.seq)
		}
		if !repeated && eng.MaxPending() != ref.maxPend {
			t.Fatalf("MaxPending() = %d, reference high water %d", eng.MaxPending(), ref.maxPend)
		}
	})
}
