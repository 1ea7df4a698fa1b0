package ioengine

import (
	"sync"

	"dpnfs/internal/sim"
)

// gate is the engine's class-aware window: a counting limiter with two
// strict-priority FIFO queues (foreground before background) and a
// background occupancy share.  It serves both execution modes — simulated
// processes park on a per-waiter sim.Chan (resumed in deterministic
// virtual-time order), real-time callers block on a buffered Go channel.
//
// Slots are handed over, not raced for: release admits waiting requests
// directly (charging the slot to the waiter before signalling it), so a
// waking foreground request can never lose its slot to a later background
// arrival.
type gate struct {
	mu     sync.Mutex
	limit  int     // window size
	share  float64 // background occupancy share (<=0 or >=1: uncapped)
	held   int     // slots occupied, all classes
	bgHeld int     // slots occupied by Background
	q      [numClasses][]*gateWaiter
}

type gateWaiter struct {
	class Class
	simCh *sim.Chan     // sim mode: parked simulated process
	rtCh  chan struct{} // real-time mode: buffered(1), signalled once
}

func newGate(limit int, share float64) *gate {
	return &gate{limit: limit, share: share}
}

// bgAllowed is the background slot cap.
func (g *gate) bgAllowed() int {
	if g.share <= 0 || g.share >= 1 {
		return g.limit
	}
	n := int(g.share*float64(g.limit) + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// admitLocked reports whether a new arrival of class may take a slot right
// now: capacity free, nobody of a same-or-higher class queued ahead of it,
// and (for background) the share not exhausted.
func (g *gate) admitLocked(class Class) bool {
	if g.held >= g.limit {
		return false
	}
	if len(g.q[Foreground]) > 0 {
		return false
	}
	if class == Background {
		if len(g.q[Background]) > 0 || g.bgHeld >= g.bgAllowed() {
			return false
		}
	}
	return true
}

func (g *gate) takeLocked(class Class) {
	g.held++
	if class == Background {
		g.bgHeld++
	}
}

// wakeLocked admits as many waiters as the limit and share allow: the whole
// foreground queue first (strict priority), then background within its
// share.  Each admitted waiter is charged its slot before being signalled.
func (g *gate) wakeLocked() {
	for len(g.q[Foreground]) > 0 && g.held < g.limit {
		w := g.q[Foreground][0]
		g.q[Foreground] = g.q[Foreground][1:]
		g.takeLocked(Foreground)
		w.signal()
	}
	for len(g.q[Background]) > 0 && g.held < g.limit && g.bgHeld < g.bgAllowed() {
		w := g.q[Background][0]
		g.q[Background] = g.q[Background][1:]
		g.takeLocked(Background)
		w.signal()
	}
}

func (w *gateWaiter) signal() {
	if w.simCh != nil {
		w.simCh.Send(nil)
		return
	}
	w.rtCh <- struct{}{}
}

// acquireSim takes one slot for a simulated process, parking it in virtual
// time if none is admissible.
func (g *gate) acquireSim(p *sim.Proc, class Class, name string) {
	g.mu.Lock()
	if g.admitLocked(class) {
		g.takeLocked(class)
		g.mu.Unlock()
		return
	}
	w := &gateWaiter{class: class, simCh: sim.NewChan(name + "/gate")}
	g.q[class] = append(g.q[class], w)
	g.mu.Unlock()
	w.simCh.Recv(p)
}

// acquireRT is acquireSim for real-time callers (wall-clock blocking).
func (g *gate) acquireRT(class Class) {
	g.mu.Lock()
	if g.admitLocked(class) {
		g.takeLocked(class)
		g.mu.Unlock()
		return
	}
	w := &gateWaiter{class: class, rtCh: make(chan struct{}, 1)}
	g.q[class] = append(g.q[class], w)
	g.mu.Unlock()
	<-w.rtCh
}

// tryAcquire takes a slot only if one is admissible right now — the hedge
// admission rule: never queue, never displace or overtake waiting work.
func (g *gate) tryAcquire(class Class) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.q[Background]) > 0 || !g.admitLocked(class) {
		return false
	}
	g.takeLocked(class)
	return true
}

// release returns one slot and admits waiters.
func (g *gate) release(class Class) {
	g.mu.Lock()
	g.held--
	if class == Background {
		g.bgHeld--
	}
	g.wakeLocked()
	g.mu.Unlock()
}
