// Execution modes.  A Ctx runs in one of two modes, fixed for its lifetime:
// under the simulation kernel (Ctx.P is the cooperative sim.Proc the flow
// runs as, on the kernel's virtual clock) or in real time (Ctx.P is nil,
// flows are goroutines on the wall clock).  This file is where that fork
// lives: each primitive takes the Ctx, branches on its mode once, and wraps
// exactly the primitive that mode uses, so clients, servers and the I/O
// engine are written once (docs/ARCHITECTURE.md "Execution modes").  The
// real-time side never touches the sim half, which is unsynchronised.
package rpc

import (
	"sync"
	"time"

	"dpnfs/internal/sim"
)

// Go starts fn as a concurrent flow of c's mode — a kernel process called
// name, or a goroutine — and hands it a fresh Ctx of the same mode.  Nothing
// waits for the flow; pair it with a Group.
func (c *Ctx) Go(name string, fn func(*Ctx)) {
	if c.P == nil {
		go fn(&Ctx{})
		return
	}
	c.P.Kernel().Go(name, func(p *sim.Proc) { fn(&Ctx{P: p}) })
}

// Pause blocks the flow for d on the mode's clock.  Unlike Sleep — a model
// charge that costs real-time callers nothing — a Pause is part of the
// algorithm (a retry backoff, a straggler timer) and holds in both modes.
func (c *Ctx) Pause(d time.Duration) {
	if c.P != nil {
		c.P.Sleep(d)
		return
	}
	time.Sleep(d)
}

// Group waits for flows started with Ctx.Go: a sim.WaitGroup under the
// kernel, a sync.WaitGroup otherwise.  The zero value is ready to use; all
// calls on one Group come from Ctxs of one mode.
type Group struct {
	sim sim.WaitGroup
	rt  sync.WaitGroup
}

// Add reserves n completions.
func (g *Group) Add(ctx *Ctx, n int) {
	if ctx.P != nil {
		g.sim.Add(n)
		return
	}
	g.rt.Add(n)
}

// Done signals one completion.
func (g *Group) Done(ctx *Ctx) {
	if ctx.P != nil {
		g.sim.Done()
		return
	}
	g.rt.Done()
}

// Wait blocks the flow until every reserved completion was signalled.
func (g *Group) Wait(ctx *Ctx) {
	if ctx.P != nil {
		g.sim.Wait(ctx.P)
		return
	}
	g.rt.Wait()
}

// Sem is a counting semaphore of single units: a FIFO sim.Semaphore under
// the kernel (waiters resume in arrival order, deterministically), a
// buffered channel otherwise.
type Sem struct {
	sim *sim.Semaphore
	rt  chan struct{}
}

// NewSem returns a semaphore with n units free; name labels it in simulated
// deadlock reports.
func NewSem(name string, n int) *Sem {
	return &Sem{sim: sim.NewSemaphore(name, n), rt: make(chan struct{}, n)}
}

// Acquire takes one unit, blocking the flow while none is free.
func (s *Sem) Acquire(ctx *Ctx) {
	if ctx.P != nil {
		s.sim.Acquire(ctx.P, 1)
		return
	}
	s.rt <- struct{}{}
}

// Release returns one unit.
func (s *Sem) Release(ctx *Ctx) {
	if ctx.P != nil {
		s.sim.Release(1)
		return
	}
	<-s.rt
}

// Wakeup is a one-shot hand-over for queues that assign the contended
// resource themselves (the I/O engine's class-aware window): the waiter
// parks in Wait, the owner charges the resource to it and calls Wake once.
// Wake never blocks and may precede Wait.  It is a sim.Chan under the
// kernel, a one-slot channel otherwise.
type Wakeup struct {
	sim *sim.Chan
	rt  chan struct{}
}

// NewWakeup returns an unsignalled Wakeup of ctx's mode; name labels the
// parked process in simulated deadlock reports.
func NewWakeup(ctx *Ctx, name string) Wakeup {
	if ctx.P != nil {
		return Wakeup{sim: sim.NewChan(name)}
	}
	return Wakeup{rt: make(chan struct{}, 1)}
}

// Wake releases the waiter, now or when it arrives.
func (w Wakeup) Wake() {
	if w.sim != nil {
		w.sim.Send(nil)
		return
	}
	w.rt <- struct{}{}
}

// Wait parks the flow until Wake.
func (w Wakeup) Wait(ctx *Ctx) {
	if w.sim != nil {
		w.sim.Recv(ctx.P)
		return
	}
	<-w.rt
}
