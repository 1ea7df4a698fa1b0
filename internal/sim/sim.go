// Package sim implements a deterministic discrete-event simulation kernel
// with cooperatively scheduled goroutine processes and virtual time.
//
// The kernel runs exactly one process goroutine at a time.  A process blocks
// by sleeping for a virtual duration, by waiting on a queue-backed primitive
// (Semaphore, Chan), or by using a service resource (FIFOServer, KServer,
// see resource.go).  Blocking hands control back to the kernel, which pops
// the next event from a time-ordered queue and resumes the corresponding
// process.  Ties are broken by event sequence number, so simulations are
// fully deterministic.
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
	"container/heap"
	"fmt"
	"math/rand"
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
	at    Time
	seq   uint64
	p     *Proc
	index int // heap index
	dead  bool
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Kernel is a discrete-event simulation kernel.  Create one with NewKernel,
// start processes with Go, and drive the simulation with Run.
type Kernel struct {
	now    Time
	seq    uint64
	events eventQueue
	yield  chan struct{}
	rng    *rand.Rand

	running int              // live (started, unfinished) processes
	parked  map[*Proc]string // processes blocked on a primitive, with reason
	nextID  int

	// free recycles fired events.  Nothing retains an *event past its
	// dispatch (schedule's return value is never stored), and the kernel is
	// cooperatively single-threaded, so a plain freelist is safe.  Its high
	// water mark is the maximum number of simultaneously scheduled events.
	free []*event

	// Stats
	eventsFired uint64
}

// NewKernel returns a kernel whose random source is seeded with seed, so
// that any stochastic workload driven from Kernel.Rand is reproducible.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		yield:  make(chan struct{}),
		rng:    rand.New(rand.NewSource(seed)),
		parked: make(map[*Proc]string),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.  It must only be
// used from within simulation processes (or before Run), never concurrently.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// EventsFired reports how many events the kernel has dispatched.
func (k *Kernel) EventsFired() uint64 { return k.eventsFired }

// Proc is a simulated process: a goroutine whose execution is interleaved
// with all other processes under the kernel's virtual clock.
type Proc struct {
	k      *Kernel
	id     int
	name   string
	wake   chan struct{}
	done   bool
	daemon bool
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
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	k.nextID++
	p := &Proc{k: k, id: k.nextID, name: name, wake: make(chan struct{}, 1)}
	k.running++
	go func() {
		<-p.wake
		// The deferred yield also covers runtime.Goexit (e.g. t.Fatal
		// inside a simulated process): the kernel must regain control even
		// when fn never returns normally.
		defer func() {
			p.done = true
			k.running--
			k.yield <- struct{}{}
		}()
		fn(p)
	}()
	k.schedule(p, k.now)
	return p
}

// schedule enqueues a resumption of p at time at.
func (k *Kernel) schedule(p *Proc, at Time) *event {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event in the past: %d < %d", at, k.now))
	}
	k.seq++
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free = k.free[:n-1]
		*ev = event{at: at, seq: k.seq, p: p}
	} else {
		ev = &event{at: at, seq: k.seq, p: p}
	}
	heap.Push(&k.events, ev)
	return ev
}

// recycle returns a fired event to the freelist.
func (k *Kernel) recycle(ev *event) {
	ev.p = nil
	k.free = append(k.free, ev)
}

// ready makes a parked process runnable at the current virtual time.
func (k *Kernel) ready(p *Proc) {
	delete(k.parked, p)
	k.schedule(p, k.now)
}

// park blocks the calling process until another process (or the kernel event
// loop) resumes it.  reason is reported by deadlock diagnostics.
func (p *Proc) park(reason string) {
	p.k.parked[p] = reason
	p.k.yield <- struct{}{}
	<-p.wake
}

// sleepUntil blocks the calling process until virtual time at.
func (p *Proc) sleepUntil(at Time) {
	p.k.schedule(p, at)
	p.k.yield <- struct{}{}
	<-p.wake
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
// and nil otherwise.  Run must be called from the goroutine that created the
// kernel, and only once at a time.
func (k *Kernel) Run() error {
	for k.events.Len() > 0 {
		ev := heap.Pop(&k.events).(*event)
		if ev.dead {
			k.recycle(ev)
			continue
		}
		k.now = ev.at
		k.eventsFired++
		p := ev.p
		k.recycle(ev)
		delete(k.parked, p)
		p.wake <- struct{}{}
		<-k.yield
	}
	stuck := make(map[string]string)
	for p, why := range k.parked {
		if !p.daemon {
			stuck[fmt.Sprintf("%s#%d", p.name, p.id)] = why
		}
	}
	if len(stuck) > 0 {
		return &DeadlockError{Parked: stuck, At: k.now}
	}
	return nil
}
