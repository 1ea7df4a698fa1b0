// Package sim implements a deterministic discrete-event simulation kernel
// with cooperatively scheduled goroutine processes and virtual time.
//
// Exactly one goroutine runs at a time: the one that holds the baton.  A
// process blocks by sleeping for a virtual duration, by waiting on a
// queue-backed primitive (Semaphore, Chan, WaitGroup), or by using a service
// resource (FIFOServer, KServer, see resource.go).  There is no scheduler
// goroutine: the process that blocks, or ends, itself pops the next event
// from the time-ordered queue and wakes that event's process directly; when
// the event is its own it just keeps running.  Run only starts the chain and
// waits to be told the queue has drained.  Ties are broken by event sequence
// number, so simulations are fully deterministic.
//
// One rule makes the baton race-free without a lock: after waking its
// successor a goroutine touches nothing but its own wake channel, and
// everything it did before is ordered before the successor's next step by
// that channel send.
//
// Goroutines are recycled.  Go only records the process and schedules its
// start event; the goroutine is bound when that event fires, taken from the
// kernel's list of idle workers (most recently idled first, so its stack is
// already grown) or started if the list is empty, and goes back on the list
// when the process returns.  A process that ends through runtime.Goexit takes
// its goroutine with it but still passes the baton on.
//
// Parked daemons and idle workers are goroutines that nothing else will ever
// wake, and they keep the kernel and everything it references alive: a
// kernel that is no longer needed must be Shutdown (cluster.Cluster.Close
// does it).
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
	"math/rand"
	"runtime"
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
// goroutines with Shutdown.
type Kernel struct {
	now    Time
	seq    uint64
	events []event // binary min-heap ordered by event.before
	rng    *rand.Rand

	// drained returns the baton to the goroutine inside Run or Shutdown.
	// Its one-slot buffer lets Run signal itself when there is nothing to
	// run.
	drained chan struct{}
	idle    []*worker // goroutines waiting for a process to run, LIFO
	stopped bool      // Shutdown has begun

	procs  []*Proc // started, unfinished processes: the ones that hold a goroutine
	nextID int

	// Stats
	eventsFired uint64
}

// NewKernel returns a kernel whose random source is seeded with seed, so
// that any stochastic workload driven from Kernel.Rand is reproducible.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		drained: make(chan struct{}, 1),
		rng:     rand.New(rand.NewSource(seed)),
	}
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
	w      *worker // the goroutine running fn; nil until the start event fires
	slot   int     // index in k.procs while started and unfinished
	parked string  // why the process is blocked on a primitive; "" when it is not
	daemon bool
}

// worker is a goroutine that runs processes, one after another.  Receiving
// from wake is how it takes the baton: as the goroutine of a blocked process
// when that process's event fires, or, off the kernel's idle list, to start
// the process in p.
type worker struct {
	wake chan struct{}
	p    *Proc
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
	if k.stopped {
		panic("sim: Go on a kernel that was shut down")
	}
	k.nextID++
	p := &Proc{k: k, id: k.nextID, name: name, fn: fn}
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
// process; nil when no event is left.  After Shutdown has begun nothing is
// ever due, whatever deferred functions schedule.
func (k *Kernel) pop() *Proc {
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

// handoff passes the baton: to p's goroutine, or, when p is nil, back to
// Run or Shutdown.  It is the last thing its caller does with kernel state;
// from here on the caller may touch nothing but its own wake channel.
func (k *Kernel) handoff(p *Proc) {
	if p == nil {
		k.drained <- struct{}{}
		return
	}
	if p.w == nil { // p's start event: give it a goroutine
		if n := len(k.idle); n > 0 {
			p.w = k.idle[n-1]
			k.idle[n-1] = nil
			k.idle = k.idle[:n-1]
		} else {
			p.w = &worker{wake: make(chan struct{}, 1)}
			go k.work(p.w)
		}
		p.w.p = p
	}
	p.w.wake <- struct{}{}
}

// work is the body of a worker goroutine.
func (k *Kernel) work(w *worker) {
	for {
		<-w.wake
		if k.stopped {
			k.drained <- struct{}{}
			return
		}
		for {
			k.run(w.p)
			next := k.pop()
			if next == nil || next.w != nil {
				w.p = nil
				k.idle = append(k.idle, w)
				k.handoff(next)
				break
			}
			// The next event starts a process: run it right here.
			next.w, w.p = w, next
		}
	}
}

// run executes p to its end on the calling worker goroutine.  If p ends
// through runtime.Goexit (t.Fatal inside a simulated process, or Shutdown)
// or a panic, the goroutine is about to die and cannot be recycled, so the
// deferred function passes the baton on in its place.
func (k *Kernel) run(p *Proc) {
	p.slot = len(k.procs)
	k.procs = append(k.procs, p)
	returned := false
	defer func() {
		n := len(k.procs) - 1
		last := k.procs[n]
		k.procs[p.slot], last.slot = last, p.slot
		k.procs[n] = nil
		k.procs = k.procs[:n]
		if !returned {
			k.handoff(k.pop())
		}
	}()
	p.fn(p)
	returned = true
}

// block passes the baton to the process of the next event and waits for an
// event of p to fire.  When that next event is p's own, p just keeps
// running.
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
	k.handoff(next)
	<-p.w.wake
	if k.stopped {
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
	p.parked = reason
	p.block()
}

// sleepUntil blocks the calling process until virtual time at.
func (p *Proc) sleepUntil(at Time) {
	p.k.schedule(p, at)
	p.block()
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
	k.handoff(k.pop())
	<-k.drained
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

// Shutdown ends every goroutine the kernel owns: idle workers, and every
// process that started but has not finished (parked daemons, deadlocked
// processes, a process whose wake-up is still queued).  Those processes end
// one at a time, in creation order, by runtime.Goexit at the call they are
// blocked in, so their deferred functions run; sim primitives called from
// there wake nobody, and one that would block ends the process instead.
// Processes that never started have no goroutine and are dropped.  Shutdown
// returns when the last goroutine has handed the baton back for good.  It
// must not be called from inside a process or while Run is in progress.
// Calling it again is a no-op; Go and Run panic once it has begun.
func (k *Kernel) Shutdown() {
	if k.stopped {
		return
	}
	k.stopped = true
	live := append([]*Proc(nil), k.procs...)
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	for _, p := range live {
		p.w.wake <- struct{}{}
		<-k.drained
	}
	for _, w := range k.idle {
		w.wake <- struct{}{}
		<-k.drained
	}
	k.events, k.idle = nil, nil
}
