//go:build go1.23

// Package sim implements a deterministic discrete-event simulation kernel
// with cooperatively scheduled processes and virtual time.
//
// Every process runs as a coroutine (iter.Pull), and exactly one of them runs
// at a time.  A process blocks by sleeping for a virtual duration, by waiting
// on a queue-backed primitive (Semaphore, Chan, WaitGroup), or by using a
// service resource (FIFOServer, KServer, see resource.go).  The process that
// blocks, or ends, pops the next event from the time-ordered queue itself;
// when the event is its own it just keeps running, and otherwise it records
// that event's process and yields.  The kernel's loop then resumes the
// recorded process's coroutine: a direct switch on one thread, with no
// channel and no trip through the Go scheduler.  Run starts the loop and
// waits for it to report that the queue has drained.  Ties are broken by
// event sequence number, so simulations are fully deterministic.
//
// Coroutines are recycled.  Go only records the process and schedules its
// start event; the coroutine is bound when that event fires, taken from the
// kernel's list of idle workers (most recently idled first, so its stack is
// already grown) or created if the list is empty, and goes back on the list
// when the process returns.  A process started by GoAcquire passes through a
// Semaphore first: when its start event fires the kernel takes the units for
// it or queues it as the semaphore's waiter, with no coroutine bound, and
// Release readies it exactly as it readies a parked Acquire.  Procs are
// recycled too: a process that returns leaves its Proc for the next Go, and
// a Proc that blocks while it is not the running process (a stale one kept
// past its end) panics.  A process that ends through runtime.Goexit (what
// t.Fatal does) takes its coroutine with it, and iter.Pull passes the Goexit
// on to the loop's goroutine; that is why the loop does not run on Run's
// caller, and why a deferred function starts a new loop goroutine to carry
// on.
//
// Parked daemons and idle workers are coroutines that nothing else will ever
// resume, and they keep the kernel and everything it references alive: a
// kernel that is no longer needed must be Shutdown (cluster.Cluster.Close
// does it).  Shutdown stops each coroutine, so its process ends through
// runtime.Goexit at the call it is blocked in and its deferred functions run.
// A process still waiting for admission at its semaphore holds no coroutine:
// Shutdown drops it like a process that never started, so its deferred
// functions do not run.
//
// The sim package needs Go 1.23 or later (iter.Pull), which the build
// constraint above states.
//
// All benchmark clusters in this repository run on virtual time: a run that
// simulates minutes of I/O completes in milliseconds of wall time, and the
// throughput figures derived from it are exactly reproducible.
//
// Paper mapping: this kernel stands in for the paper's physical testbed
// (§6.1) — it is what lets every figure of the evaluation (§6.2–§6.4) be
// regenerated deterministically instead of re-run on 2007 hardware.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time, in nanoseconds.  It is deliberately
// the same representation as time.Duration so the stdlib constants
// (time.Millisecond, ...) can be used directly.
type Duration = time.Duration

// Seconds converts a Time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// event is a scheduled resumption of a process.
type event struct {
	at  Time
	seq uint64
	p   *Proc
}

// before is the dispatch order: by time, ties by scheduling order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Kernel is a discrete-event simulation kernel.  Create one with NewKernel,
// start processes with Go, drive the simulation with Run, and release its
// coroutines with Shutdown.
type Kernel struct {
	now    Time
	seq    uint64
	events []event // binary min-heap ordered by event.before
	rng    *rand.Rand

	next    *Proc         // the process the loop resumes next; nil once the queue has drained
	cur     *Proc         // the process that runs now: the one pop last returned
	passes  chan struct{} // Run starts a pass of the loop and waits on it for the end; nil before the first Run
	idle    []*worker     // coroutines waiting for a process to run, LIFO
	stopped bool          // Shutdown has begun

	procs  []*Proc // started, unfinished processes: the ones that hold a coroutine or wait for admission
	free   []*Proc // Procs of processes that returned, for Go to reuse
	nextID int

	// Stats
	eventsFired uint64
	resumes     uint64 // coroutine switches made by the loop
}

// NewKernel returns a kernel whose random source is seeded with seed, so
// that any stochastic workload driven from Kernel.Rand is reproducible.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.  It must only be
// used from within simulation processes (or before Run), never concurrently.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// EventsFired reports how many events the kernel has dispatched.
func (k *Kernel) EventsFired() uint64 { return k.eventsFired }

// Proc is a simulated process: a function whose execution is interleaved
// with all other processes under the kernel's virtual clock.
type Proc struct {
	k      *Kernel
	id     int
	name   string
	fn     func(p *Proc)
	w      *worker // the coroutine running fn; nil until the process is admitted and runs
	slot   int     // index in k.procs while started and unfinished; -1 before the start event
	parked string  // why the process is blocked on a primitive; "" when it is not
	daemon bool

	// admit is the semaphore a GoAcquire process takes admitN units of at
	// its start event, before it runs; nil for Go.
	admit  *Semaphore
	admitN int
}

// worker is a coroutine that runs processes, one after another.  The loop
// resumes it when an event of its process p fires, or, off the kernel's idle
// list, to start the process in p.
type worker struct {
	p      *Proc
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool // valid inside the coroutine only
}

// MarkDaemon marks the process as a daemon: a server loop that legitimately
// blocks forever waiting for work.  Daemons parked on a primitive when the
// event queue drains are not reported as deadlocked.
func (p *Proc) MarkDaemon() { p.daemon = true }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Go starts a new simulated process running fn.  It may be called before
// Run, or from inside another process.  The new process begins executing at
// the current virtual time, after already-scheduled events at that time.
// The returned *Proc is valid only until the process ends: the kernel then
// reuses it for a later Go.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	return k.spawn(name, fn, nil, 0)
}

// GoAcquire starts a new simulated process that takes n units of s before
// fn runs, as if fn began with s.Acquire(p, n); fn releases them.  Until the
// units are free the process waits in s's FIFO queue without a coroutine, so
// a large backlog costs one queue entry each instead of a parked goroutine.
// Events, their order and the admission order are those of the Acquire
// form.  The returned *Proc is valid only until the process ends.
func (k *Kernel) GoAcquire(s *Semaphore, n int, name string, fn func(p *Proc)) *Proc {
	s.check(n)
	return k.spawn(name, fn, s, n)
}

// spawn records a process, on a recycled Proc when one is free, and
// schedules its start event.
func (k *Kernel) spawn(name string, fn func(p *Proc), s *Semaphore, n int) *Proc {
	if k.stopped {
		panic("sim: Go on a kernel that was shut down")
	}
	var p *Proc
	if i := len(k.free) - 1; i >= 0 {
		p = k.free[i]
		k.free[i] = nil
		k.free = k.free[:i]
	} else {
		p = new(Proc)
	}
	k.nextID++
	*p = Proc{k: k, id: k.nextID, name: name, fn: fn, slot: -1, admit: s, admitN: n}
	k.schedule(p, k.now)
	return p
}

// schedule enqueues a resumption of p at time at.
func (k *Kernel) schedule(p *Proc, at Time) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event in the past: %d < %d", at, k.now))
	}
	k.seq++
	ev := event{at: at, seq: k.seq, p: p}
	q := append(k.events, ev)
	// Sift up.
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	k.events = q
}

// pop removes the earliest event, advances the clock to it and returns its
// process, which becomes the running one; nil when no event is left.  A
// start event registers its process, and one that must wait for admission
// is queued on its semaphore and pop goes on to the next event.  After
// Shutdown has begun nothing is ever due, whatever deferred functions
// schedule.
func (k *Kernel) pop() *Proc {
	for {
		p := k.popEvent()
		if p != nil && p.slot < 0 && !k.start(p) {
			continue
		}
		k.cur = p
		return p
	}
}

// start registers p at its start event and takes its admission units.  It
// reports false when p must wait for them: it is then its semaphore's
// waiter, and Release readies it.
func (k *Kernel) start(p *Proc) bool {
	p.slot = len(k.procs)
	k.procs = append(k.procs, p)
	if s := p.admit; s != nil && !s.take(p, p.admitN) {
		p.parked = s.reason
		return false
	}
	return true
}

// popEvent removes the earliest event, advances the clock to it and returns
// its process; nil when no event is left or Shutdown has begun.
func (k *Kernel) popEvent() *Proc {
	q := k.events
	if len(q) == 0 || k.stopped {
		return nil
	}
	first := q[0]
	n := len(q) - 1
	ev := q[n]
	q[n] = event{}
	q = q[:n]
	// Sift the former last event down from the root.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&ev) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = ev
	}
	k.events = q

	k.now = first.at
	k.eventsFired++
	first.p.parked = ""
	return first.p
}

// newWorker creates an idle worker coroutine.
func (k *Kernel) newWorker() *worker {
	w := new(worker)
	w.resume, w.stop = iter.Pull(func(yield func(struct{}) bool) {
		w.yield = yield
		k.work(w)
	})
	return w
}

// work is the body of a worker coroutine.  It returns when Shutdown stops
// the worker while it is idle.
func (k *Kernel) work(w *worker) {
	for {
		k.run(w.p)
		next := k.pop()
		if next != nil && next.w == nil {
			// The next event starts a process: run it right here.
			next.w, w.p = w, next
			continue
		}
		w.p = nil
		k.idle = append(k.idle, w)
		k.next = next
		if !w.yield(struct{}{}) {
			return
		}
	}
}

// run executes p to its end on the calling worker coroutine.  A p that
// returns leaves its Proc on the free list, keeping its name and id for
// the stale-Proc guard.  If p ends through runtime.Goexit (t.Fatal inside a
// simulated process, or Shutdown) or a panic, the coroutine is about to die
// and cannot be recycled, so the deferred function pops the next event for
// the loop in its place.
func (k *Kernel) run(p *Proc) {
	returned := false
	defer func() {
		n := len(k.procs) - 1
		last := k.procs[n]
		k.procs[p.slot], last.slot = last, p.slot
		k.procs[n] = nil
		k.procs = k.procs[:n]
		if returned {
			p.fn, p.w, p.admit = nil, nil, nil
			k.free = append(k.free, p)
			return
		}
		k.next = k.pop()
		if r := recover(); r != nil {
			// iter.Pull re-panics on the loop's goroutine with the value
			// alone, so the value carries the stack that panicked.
			panic(fmt.Sprintf("%v\n\nprocess %s panicked:\n%s", r, p.name, debug.Stack()))
		}
	}()
	p.fn(p)
	returned = true
}

// block pops the next event and, unless that event is p's own (then p just
// keeps running), records its process for the loop and yields until an event
// of p fires.
func (p *Proc) block() {
	k := p.k
	next := k.pop()
	if next == p {
		return
	}
	if k.stopped {
		// A deferred function run by Shutdown tried to block.
		runtime.Goexit()
	}
	k.next = next
	if !p.w.yield(struct{}{}) {
		// Shutdown stopped the coroutine.
		runtime.Goexit()
	}
}

// ready makes a parked process runnable at the current virtual time.
func (k *Kernel) ready(p *Proc) {
	p.parked = ""
	k.schedule(p, k.now)
}

// park blocks the calling process until another process resumes it.  reason
// is reported by deadlock diagnostics.
func (p *Proc) park(reason string) {
	p.mustRun()
	p.parked = reason
	p.block()
}

// sleepUntil blocks the calling process until virtual time at.
func (p *Proc) sleepUntil(at Time) {
	p.mustRun()
	p.k.schedule(p, at)
	p.block()
}

// mustRun panics unless p is the running process: only it may block.  A
// *Proc kept past its process's end is the usual culprit; since Procs are
// recycled it may even name another process by then.
func (p *Proc) mustRun() {
	if k := p.k; p != k.cur && !k.stopped {
		panic(fmt.Sprintf("sim: process %s#%d blocked but is not the running process (a *Proc used after its process ended?)", p.name, p.id))
	}
}

// Sleep blocks the calling process for virtual duration d.  Negative
// durations sleep zero time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.sleepUntil(p.k.now + Time(d))
}

// SleepUntilTime blocks the calling process until the given virtual time.
// It is a no-op if the time is not in the future.
func (p *Proc) SleepUntilTime(at Time) {
	if at <= p.k.now {
		return
	}
	p.sleepUntil(at)
}

// DeadlockError is returned by Run when no events remain but processes are
// still parked on synchronization primitives.
type DeadlockError struct {
	Parked map[string]string // process name -> blocking reason
	At     Time
}

func (e *DeadlockError) Error() string {
	names := make([]string, 0, len(e.Parked))
	for n := range e.Parked {
		names = append(names, n)
	}
	sort.Strings(names)
	s := fmt.Sprintf("sim: deadlock at t=%v: %d parked process(es):", time.Duration(e.At), len(names))
	for _, n := range names {
		s += fmt.Sprintf(" [%s: %s]", n, e.Parked[n])
	}
	return s
}

// Run drives the simulation until no scheduled events remain.  It returns a
// *DeadlockError if processes are still blocked when the event queue drains,
// and nil otherwise.  Run must not be called from inside a process, and only
// once at a time; processes added after it returns run on the next call.
func (k *Kernel) Run() error {
	if k.stopped {
		panic("sim: Run on a kernel that was shut down")
	}
	k.next = k.pop()
	if k.passes == nil {
		k.passes = make(chan struct{})
		go k.loop()
	} else {
		k.passes <- struct{}{}
	}
	<-k.passes
	stuck := make(map[string]string)
	for _, p := range k.procs {
		if p.parked != "" && !p.daemon {
			stuck[fmt.Sprintf("%s#%d", p.name, p.id)] = p.parked
		}
	}
	if len(stuck) > 0 {
		return &DeadlockError{Parked: stuck, At: k.now}
	}
	return nil
}

// loop is the goroutine that resumes processes: one pass per Run, each until
// the queue drains.  It lives from the first Run to Shutdown, so that no
// goroutine is still on its way out when Run returns.  A process that ends
// through runtime.Goexit ends the loop's goroutine too, since iter.Pull passes
// a Goexit on to whoever resumed the coroutine; the deferred function then
// starts a new loop goroutine to finish the pass.
func (k *Kernel) loop() {
	defer func() {
		if !k.stopped {
			go k.loop()
		}
	}()
	for {
		for p := k.next; p != nil; p = k.next {
			if p.w == nil { // p's start event: give it a worker
				if n := len(k.idle); n > 0 {
					p.w = k.idle[n-1]
					k.idle[n-1] = nil
					k.idle = k.idle[:n-1]
				} else {
					p.w = k.newWorker()
				}
				p.w.p = p
			}
			k.resumes++
			p.w.resume()
		}
		k.passes <- struct{}{}
		if _, ok := <-k.passes; !ok {
			return
		}
	}
}

// Shutdown ends every coroutine the kernel owns: idle workers, and every
// process that started but has not finished (parked daemons, deadlocked
// processes, a process whose wake-up is still queued), and then the loop's
// goroutine.  Those processes end one at a time, in creation order, by
// runtime.Goexit at the call they are blocked in, so their deferred functions
// run; sim primitives called from there wake nobody, and one that would block
// ends the process instead.  Processes that never started, and those still
// waiting for admission at a GoAcquire semaphore, have no coroutine and are
// dropped: their deferred functions do not run.  Shutdown must not be called
// from inside a process or while Run is in progress.  Calling it again is a no-op; Go and Run panic
// once it has begun.
func (k *Kernel) Shutdown() {
	if k.stopped {
		return
	}
	k.stopped = true
	live := append([]*Proc(nil), k.procs...)
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	for _, p := range live {
		if p.w == nil {
			continue // waiting for admission
		}
		// stop passes the process's Goexit on to its caller, so it needs a
		// goroutine of its own.
		done := make(chan struct{})
		go func() {
			defer close(done)
			p.w.stop()
		}()
		<-done
	}
	for _, w := range k.idle {
		w.stop()
	}
	if k.passes != nil {
		close(k.passes)
	}
	k.events, k.idle, k.free = nil, nil, nil
}
