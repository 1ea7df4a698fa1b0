package sim

import "fmt"

// FIFOServer models a single work-conserving server that processes requests
// in arrival order at a fixed rate: a network-interface direction, a disk
// head, or any other pipeline stage whose service time is proportional to
// request size.  The model is O(1): it tracks only the time the server next
// becomes free.
type FIFOServer struct {
	name     string
	freeAt   Time
	busyTime Time // accumulated service time, for utilization stats
}

// NewFIFOServer returns a named FIFO service resource.
func NewFIFOServer(name string) *FIFOServer {
	return &FIFOServer{name: name}
}

// Use blocks p until the server has queued and served a request of the given
// service duration, and returns the completion time.
func (s *FIFOServer) Use(p *Proc, service Duration) Time {
	if service < 0 {
		panic(fmt.Sprintf("sim: %s: negative service time %v", s.name, service))
	}
	start := p.k.now
	if s.freeAt > start {
		start = s.freeAt
	}
	done := start + Time(service)
	s.freeAt = done
	s.busyTime += Time(service)
	p.sleepUntil(done)
	return done
}

// Reserve books service time without blocking the caller and returns the
// completion time.  It is used for cut-through modelling where a later stage
// should begin queueing at the completion time of this stage without the
// caller synchronously waiting here.
func (s *FIFOServer) Reserve(at Time, service Duration) Time {
	start := at
	if s.freeAt > start {
		start = s.freeAt
	}
	done := start + Time(service)
	s.freeAt = done
	s.busyTime += Time(service)
	return done
}

// BusyTime reports the cumulative service time booked on this server.
func (s *FIFOServer) BusyTime() Duration { return Duration(s.busyTime) }

// FreeAt reports when the server next becomes idle.
func (s *FIFOServer) FreeAt() Time { return s.freeAt }

// KServer models k identical parallel servers with a shared FIFO queue —
// e.g. a multi-core CPU or a pool of service threads.  Service times may
// vary per request.
type KServer struct {
	name   string
	freeAt []Time
	busy   Time
}

// NewKServer returns a k-way parallel service resource.
func NewKServer(name string, k int) *KServer {
	if k <= 0 {
		panic(fmt.Sprintf("sim: %s: k must be positive, got %d", name, k))
	}
	return &KServer{name: name, freeAt: make([]Time, k)}
}

// Use blocks p until one of the k servers has completed a request of the
// given service duration, and returns the completion time.
func (s *KServer) Use(p *Proc, service Duration) Time {
	if service < 0 {
		panic(fmt.Sprintf("sim: %s: negative service time %v", s.name, service))
	}
	// Pick the server that frees earliest.
	best := 0
	for i, t := range s.freeAt {
		if t < s.freeAt[best] {
			best = i
		}
	}
	start := p.k.now
	if s.freeAt[best] > start {
		start = s.freeAt[best]
	}
	done := start + Time(service)
	s.freeAt[best] = done
	s.busy += Time(service)
	p.sleepUntil(done)
	return done
}

// BusyTime reports cumulative service time across all k servers.
func (s *KServer) BusyTime() Duration { return Duration(s.busy) }

// Semaphore is a counting semaphore with FIFO wakeup, used for bounded
// resources that are held across other blocking operations (e.g. the PVFS2
// kernel⇄daemon transfer-buffer pool).
type Semaphore struct {
	name   string
	reason string // park reason, precomputed
	avail  int
	cap    int
	// waiters is a head-indexed FIFO: popping advances head instead of
	// re-slicing, so append keeps reusing the same backing array.
	waiters []semWaiter
	whead   int
}

type semWaiter struct {
	p *Proc
	n int
}

// NewSemaphore returns a semaphore with the given capacity, initially fully
// available.
func NewSemaphore(name string, capacity int) *Semaphore {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: semaphore %s: capacity must be positive, got %d", name, capacity))
	}
	return &Semaphore{name: name, reason: "semaphore " + name, avail: capacity, cap: capacity}
}

// Acquire blocks p until n units are available and takes them.  Waiters are
// served strictly in arrival order: a large request at the head of the queue
// blocks smaller requests behind it (no barging), matching a fair buffer
// pool.
func (s *Semaphore) Acquire(p *Proc, n int) {
	s.check(n)
	if !s.take(p, n) {
		p.park(s.reason)
	}
}

// check panics unless n units can ever be acquired at once.
func (s *Semaphore) check(n int) {
	if n <= 0 || n > s.cap {
		panic(fmt.Sprintf("sim: semaphore %s: invalid acquire %d (cap %d)", s.name, n, s.cap))
	}
}

// take takes n units for p when they are free and nobody queues ahead of
// it, and otherwise queues p as a waiter and reports false.
func (s *Semaphore) take(p *Proc, n int) bool {
	if s.whead == len(s.waiters) && s.avail >= n {
		s.avail -= n
		return true
	}
	s.waiters = append(s.waiters, semWaiter{p: p, n: n})
	return false
}

// Release returns n units and wakes waiters whose requests now fit.
func (s *Semaphore) Release(n int) {
	s.avail += n
	if s.avail > s.cap {
		panic(fmt.Sprintf("sim: semaphore %s: release overflow (%d > cap %d)", s.name, s.avail, s.cap))
	}
	for s.whead < len(s.waiters) && s.avail >= s.waiters[s.whead].n {
		w := s.waiters[s.whead]
		s.waiters[s.whead] = semWaiter{}
		s.whead++
		if s.whead == len(s.waiters) {
			s.waiters = s.waiters[:0]
			s.whead = 0
		}
		s.avail -= w.n
		w.p.k.ready(w.p)
	}
}

// Available reports the currently free units (for tests and stats).
func (s *Semaphore) Available() int { return s.avail }

// Chan is an unbounded FIFO message channel between simulated processes.
// Send never blocks; Recv blocks until a message is available.
type Chan struct {
	name   string
	reason string // park reason, precomputed
	// queue and waiters are head-indexed FIFOs: popping advances the head
	// instead of re-slicing, so append keeps reusing the backing array.
	queue   []any
	qhead   int
	waiters []*Proc
	whead   int
}

// NewChan returns a named simulated channel.
func NewChan(name string) *Chan {
	return &Chan{name: name, reason: "chan " + name}
}

// Send enqueues v and wakes one receiver if any is waiting.  The receiver
// resumes at the current virtual time.
func (c *Chan) Send(v any) {
	c.queue = append(c.queue, v)
	if c.whead < len(c.waiters) {
		p := c.waiters[c.whead]
		c.waiters[c.whead] = nil
		c.whead++
		if c.whead == len(c.waiters) {
			c.waiters = c.waiters[:0]
			c.whead = 0
		}
		p.k.ready(p)
	}
}

// Recv blocks p until a message is available and returns it.
func (c *Chan) Recv(p *Proc) any {
	for c.qhead == len(c.queue) {
		c.waiters = append(c.waiters, p)
		p.park(c.reason)
	}
	v := c.queue[c.qhead]
	c.queue[c.qhead] = nil
	c.qhead++
	if c.qhead == len(c.queue) {
		c.queue = c.queue[:0]
		c.qhead = 0
	}
	return v
}

// Len reports the number of queued messages.
func (c *Chan) Len() int { return len(c.queue) - c.qhead }

// WaitGroup tracks completion of a set of simulated processes.
type WaitGroup struct {
	count   int
	waiters []*Proc
}

// Add increments the outstanding-work counter.
func (w *WaitGroup) Add(n int) { w.count += n }

// Done decrements the counter and wakes waiters when it reaches zero.
func (w *WaitGroup) Done() {
	w.count--
	if w.count < 0 {
		panic("sim: WaitGroup counter went negative")
	}
	if w.count == 0 {
		for _, p := range w.waiters {
			p.k.ready(p)
		}
		w.waiters = nil
	}
}

// Wait blocks p until the counter reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	if w.count == 0 {
		return
	}
	w.waiters = append(w.waiters, p)
	p.park("waitgroup")
}
