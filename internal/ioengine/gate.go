package ioengine

import (
	"sync"

	"dpnfs/internal/rpc"
)

// gate is the engine's class-aware window: a counting limiter with two
// strict-priority FIFO queues (foreground before background) and a
// background occupancy share.  A waiter parks on its own rpc.Wakeup, so one
// acquire serves both execution modes (under the kernel waiters resume in
// deterministic virtual-time order).
//
// Slots are handed over, not raced for: release admits waiting requests
// directly (charging the slot to the waiter before waking it), so a waking
// foreground request can never lose its slot to a later background arrival.
type gate struct {
	mu     sync.Mutex
	name   string  // labels parked waiters in simulated deadlock reports
	limit  int     // window size
	share  float64 // background occupancy share (<=0 or >=1: uncapped)
	held   int     // slots occupied, all classes
	bgHeld int     // slots occupied by Background
	q      [numClasses][]rpc.Wakeup
}

func newGate(name string, limit int, share float64) *gate {
	return &gate{name: name + "/gate", limit: limit, share: share}
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
// share.  Each admitted waiter is charged its slot before being woken.
func (g *gate) wakeLocked() {
	for len(g.q[Foreground]) > 0 && g.held < g.limit {
		w := g.q[Foreground][0]
		g.q[Foreground] = g.q[Foreground][1:]
		g.takeLocked(Foreground)
		w.Wake()
	}
	for len(g.q[Background]) > 0 && g.held < g.limit && g.bgHeld < g.bgAllowed() {
		w := g.q[Background][0]
		g.q[Background] = g.q[Background][1:]
		g.takeLocked(Background)
		w.Wake()
	}
}

// acquire takes one slot for class, parking the caller's flow on the mode's
// clock while none is admissible.
func (g *gate) acquire(ctx *rpc.Ctx, class Class) {
	g.mu.Lock()
	if g.admitLocked(class) {
		g.takeLocked(class)
		g.mu.Unlock()
		return
	}
	w := rpc.NewWakeup(ctx, g.name)
	g.q[class] = append(g.q[class], w)
	g.mu.Unlock()
	w.Wait(ctx)
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
