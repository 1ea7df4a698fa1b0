// Package ioengine is the unified striped-I/O scheduler shared by the
// NFSv4.1 and PVFS2 client data paths.  Both clients fan one application
// request out across storage nodes (the paper's central mechanism, §4);
// before this package each implemented that fan-out separately — the PVFS2
// client in lock-step waves that stalled on the slowest transfer of each
// batch, the NFS client unbounded with inline retry/recovery logic.  The
// engine gives them one implementation of the whole pipeline:
//
//   - Prepare turns mapper extents into the request stream: adjacent
//     same-device extents are coalesced (fewer, larger RPCs — in the spirit
//     of communication-optimal blocking) and the result is split against
//     MaxTransfer (PVFS2 "large transfer buffers", §5).
//   - Run issues the requests through a true sliding in-flight window of
//     MaxFlight slots: the moment a transfer completes, its slot re-issues
//     the next request.  Under the simulation kernel requests run as
//     simulated processes in virtual time; in real-time (TCP) mode they run
//     as plain goroutines — the rpc.Ctx passed in selects the mode, exactly
//     as elsewhere in the repository.
//   - Policies wrap the per-request operation with failure handling, one
//     rung each (docs/FAULTS.md "Recovery paths per architecture" tabulates
//     trigger, bound and counter): WithRetry is the bounded retry/backoff
//     loop (PVFS2 riding out a crashed daemon), WithFallback hangs a rung
//     behind an operation (the NFS client's layout re-drive and MDS-proxied
//     last resort), and Replicas is the replica rung every read ladder
//     shares — read another copy, and after a checksum failure rewrite the
//     bad one exactly once (RepairLedger).
//
// # Tail-latency scheduling
//
// Beyond the basic window the engine implements three scheduling features
// (docs/ARCHITECTURE.md "Tail-latency scheduling"), all off by default and
// enabled per Config/RunOpts:
//
//   - QoS classes: every Run carries a Class (Foreground or Background).
//     Window slots dispatch strict-priority — a waiting foreground request
//     is always admitted before any waiting background one — and
//     Config.BackgroundShare caps the fraction of the window background
//     work may hold, so write-back and readahead can never crowd out
//     synchronous reads.
//   - Hedged requests: when a request has been in flight longer than an
//     adaptive straggler threshold (4 × a latency EWMA, floored at 10 ms),
//     a duplicate is launched — but only on a spare slot (the window bound
//     holds with hedges outstanding).  Whichever copy completes first wins
//     and is recorded exactly once; the loser's result is suppressed at
//     completion.  Under the simulation kernel the straggler timer is a
//     virtual-time sleep, so hedged runs stay deterministic by seed; only
//     real-time (TCP) mode arms wall-clock timers (counted by
//     ioengine_wallclock_timers_total).
//   - Replica steering: SteerReplicas rewrites read extents produced by a
//     stripe.Replicated mapper onto each extent's least-loaded replica
//     device, using the engine's live per-device in-flight counts, with a
//     deterministic tie-break.  When the steered copy fails, Replicas walks
//     the others (stripe.Replicated.AlternatesLive).
//
// Errors propagate deterministically: whatever the completion interleaving,
// Run returns the error of the lowest-indexed failed request, and no new
// requests are issued once a failure is recorded.
//
// The engine records its behaviour in the shared metrics registry
// (docs/METRICS.md): window occupancy, slot waits (total and per class),
// hedge launches/wins/cancellations, and how many requests coalescing and
// splitting added or removed.
package ioengine

import (
	"sync"
	"time"

	"dpnfs/internal/metrics"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/stripe"
)

// DoFunc executes one storage request.  The extent's Dev/Off/DevOff/Len
// carry the device routing; issuers close over whatever else they need
// (payload slices, file handles, layouts).
type DoFunc func(ctx *rpc.Ctx, r stripe.Extent) error

// Policy decorates a DoFunc with per-request failure handling.  Policies
// passed to Run compose outermost-first: Run(ctx, reqs, fn, p1, p2) executes
// p1(p2(fn)).
type Policy func(next DoFunc) DoFunc

// WithRetry retries rpc.Retryable failures under pol (zero-valued fields
// take rpc defaults), sleeping virtual time under the simulation kernel and
// wall clock otherwise.  onRetry, when non-nil, runs before each retry —
// issuers hook their retry counters here.  The loop itself is
// rpc.RetryPolicy.Do, shared with retry-wrapped conns.
func WithRetry(pol rpc.RetryPolicy, onRetry func()) Policy {
	return func(next DoFunc) DoFunc {
		return func(ctx *rpc.Ctx, r stripe.Extent) error {
			return pol.Do(ctx, onRetry, func() error { return next(ctx, r) })
		}
	}
}

// WithFallback runs fb when the wrapped operation fails, passing the
// original error.  fb returns nil if it recovered the request, the original
// error if it declined, or its own failure.  The NFS client stacks two of
// these: layout recovery (evict + LAYOUTGET + retry) inside, MDS-proxied
// I/O outside — the paper's guaranteed-correct fallback path (§4).
func WithFallback(fb func(ctx *rpc.Ctx, r stripe.Extent, err error) error) Policy {
	return func(next DoFunc) DoFunc {
		return func(ctx *rpc.Ctx, r stripe.Extent) error {
			err := next(ctx, r)
			if err == nil {
				return nil
			}
			return fb(ctx, r, err)
		}
	}
}

// RepairLedger makes a client's read-repair exactly-once per key (one
// corrupt device extent): the first corrupt read of an extent rewrites the
// bad copy, concurrent and later corrupt reads of the same extent only
// re-serve good bytes — so a rewrite that does not take cannot loop.  The
// zero value is ready to use.
type RepairLedger[K comparable] struct {
	mu      sync.Mutex
	claimed map[K]bool
}

// Once runs rewrite if no earlier call claimed key, and reports whether it
// ran and succeeded.  Repair is best-effort (the caller already holds good
// data), so a failed rewrite only releases the claim for a later attempt.
func (l *RepairLedger[K]) Once(key K, rewrite func() error) bool {
	l.mu.Lock()
	if l.claimed[key] {
		l.mu.Unlock()
		return false
	}
	if l.claimed == nil {
		l.claimed = make(map[K]bool)
	}
	l.claimed[key] = true
	l.mu.Unlock()
	if rewrite() != nil {
		l.mu.Lock()
		delete(l.claimed, key)
		l.mu.Unlock()
		return false
	}
	return true
}

// Replicas is the replica rung of a read ladder, the one implementation
// behind the NFS client, the PVFS2 client and the scrubber's repair fetch
// (docs/FAULTS.md "Recovery paths per architecture").  After an extent's
// read failed — for any reason: a replica can answer where the first copy is
// down, unreachable or rotten — it reads each other copy once, in replica
// order, until one is clean.  When the failure was a checksum mismatch and
// Rewrite is set, the bad copy is rewritten with the clean bytes, exactly
// once per Key.
type Replicas[K comparable] struct {
	// Map places the copies.  Live, when non-nil, keeps the rung off
	// devices that have left the cluster (stripe.Replicated.AlternatesLive).
	Map  *stripe.Replicated
	Live func(dev int) bool
	// Read reads one copy and verifies it (reply status and checksums).
	// real asks for actual bytes even from a caller that reads
	// synthetically: a rewrite stores content, not sizes.
	Read func(ctx *rpc.Ctx, alt stripe.Extent, real bool) (payload.Payload, error)
	// Rewrite overwrites one copy with good bytes.  Nil leaves repair to the
	// caller (the scrubber rewrites its own store and verifies it after).
	Rewrite func(ctx *rpc.Ctx, bad stripe.Extent, good payload.Payload) error
	// Ledger and Key make the rewrite exactly-once; Repaired counts the
	// rewrites that took.
	Ledger   *RepairLedger[K]
	Key      func(bad stripe.Extent) K
	Repaired *metrics.Counter
}

// Recover returns the first clean copy of e among its alternates, or cause
// when no copy is clean.  The caller owns the returned payload.
func (r *Replicas[K]) Recover(ctx *rpc.Ctx, e stripe.Extent, cause error) (payload.Payload, error) {
	repair := r.Rewrite != nil && rpc.RetryableIntegrity(cause)
	for _, alt := range r.Map.AlternatesLive(e, r.Live) {
		good, err := r.Read(ctx, alt, repair)
		if err != nil {
			continue
		}
		if repair && good.Bytes != nil && good.Len() > 0 {
			rewrite := func() error { return r.Rewrite(ctx, e, good) }
			if r.Ledger.Once(r.Key(e), rewrite) {
				r.Repaired.Inc()
			}
		}
		return good, nil
	}
	return payload.Payload{}, cause
}

// Policy hangs the rung behind a read: when the read fails, deliver gets the
// clean copy Recover found, as it would have got the read's own bytes.
func (r *Replicas[K]) Policy(deliver func(e stripe.Extent, good payload.Payload)) Policy {
	return WithFallback(func(ctx *rpc.Ctx, e stripe.Extent, cause error) error {
		good, err := r.Recover(ctx, e, cause)
		if err == nil {
			deliver(e, good)
		}
		return err
	})
}

// Class is a request's QoS priority class.
type Class int

// The two classes.  Foreground is synchronous work an application thread is
// blocked on (reads, commits); Background is deferrable work issued on the
// application's behalf (write-back flushes, readahead fills).
const (
	Foreground Class = iota
	Background
	numClasses
)

// String renders the metrics label value.
func (c Class) String() string {
	if c == Background {
		return "background"
	}
	return "foreground"
}

// RunOpts tunes one Run call.  The zero value is a foreground, unhedged run
// — exactly the pre-QoS behaviour.
type RunOpts struct {
	// Class is the run's priority class for slot dispatch.
	Class Class
	// Hedge opts this run's requests into hedged duplicates (effective only
	// when the engine's Config.Hedge is also set).  Only idempotent
	// operations should opt in; in this repository that is reads.
	Hedge bool
}

// DefaultMaxFlight is the window size when Config leaves it zero — the
// PVFS2 client's "limited request parallelization" depth (paper §5).
const DefaultMaxFlight = 8

// The straggler threshold behind hedging.
const (
	// stragglerFloor floors the threshold: a request is never hedged before
	// being in flight this long.
	stragglerFloor = 10 * time.Millisecond
	// stragglerFactor multiplies the latency EWMA to form the adaptive
	// threshold.
	stragglerFactor = 4.0
)

// Config describes one engine instance (one per protocol client).
type Config struct {
	// Name prefixes simulated process and semaphore names.
	Name string
	// Issuer labels the engine's metrics ("nfs", "pvfs").
	Issuer string
	// MaxFlight bounds concurrently outstanding requests across every Run
	// on this engine (0 = DefaultMaxFlight).
	MaxFlight int
	// MaxTransfer caps a single request's length; Prepare splits larger
	// extents (0 = no splitting).
	MaxTransfer int64
	// BackgroundShare caps the fraction of the window that Background-class
	// requests may hold at once (at least one slot).  0 or >= 1 leaves
	// background uncapped; foreground waiters still dispatch first.
	BackgroundShare float64
	// Hedge enables hedged duplicate requests for runs that opt in via
	// RunOpts.Hedge.
	Hedge bool
	// Metrics is the shared observability registry; nil discards.
	Metrics *metrics.Registry
}

// Engine schedules striped-I/O requests.  One engine per protocol client:
// the window is a client-wide bound, shared by every concurrent Run (sync
// reads, readahead fills, and write-back flushes all draw from the same
// slots, like one host's RPC slot table).
type Engine struct {
	cfg Config

	gate *gate // the class-aware window

	// latMu guards the latency EWMA behind the straggler threshold.  Under
	// the simulation kernel completions arrive in deterministic virtual-time
	// order, so the threshold is reproducible by seed.
	latMu   sync.Mutex
	latEWMA float64 // EWMA of request latency, seconds (α=1/8)

	// devMu guards the per-device in-flight counts behind SteerReplicas.
	devMu   sync.Mutex
	devLoad map[int]int

	requests  *metrics.Counter
	coalesced *metrics.Counter
	splits    *metrics.Counter
	inflight  *metrics.Gauge
	occupancy *metrics.Histogram
	slotWait  *metrics.Histogram

	classReqs     [numClasses]*metrics.Counter
	classInflight [numClasses]*metrics.Gauge
	classWait     [numClasses]*metrics.Histogram
	hedgeLaunched *metrics.Counter
	hedgeWon      *metrics.Counter
	hedgeCanceled *metrics.Counter
	wallTimers    *metrics.Counter
}

// occupancyBuckets cover window depths up to well past any configured
// MaxFlight.
var occupancyBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// New returns an engine with defaults applied and instruments resolved.
func New(cfg Config) *Engine {
	if cfg.MaxFlight <= 0 {
		cfg.MaxFlight = DefaultMaxFlight
	}
	if cfg.Name == "" {
		cfg.Name = "ioengine"
	}
	if cfg.Issuer == "" {
		cfg.Issuer = cfg.Name
	}
	reg := cfg.Metrics
	e := &Engine{
		cfg:     cfg,
		gate:    newGate(cfg.Name, cfg.MaxFlight, cfg.BackgroundShare),
		devLoad: make(map[int]int),
		requests: reg.CounterVec("ioengine_requests_total",
			"Requests issued by the striped-I/O engine (after coalescing and splitting).",
			"issuer").With(cfg.Issuer),
		coalesced: reg.CounterVec("ioengine_coalesced_total",
			"Adjacent same-device requests merged away by the engine.",
			"issuer").With(cfg.Issuer),
		splits: reg.CounterVec("ioengine_split_total",
			"Extra requests created by MaxTransfer splitting.",
			"issuer").With(cfg.Issuer),
		inflight: reg.GaugeVec("ioengine_inflight",
			"Requests currently occupying window slots.",
			"issuer").With(cfg.Issuer),
		occupancy: reg.HistogramVec("ioengine_window_occupancy",
			"In-flight depth observed as each request is issued.",
			occupancyBuckets, "issuer").With(cfg.Issuer),
		slotWait: reg.HistogramVec("ioengine_slot_wait_seconds",
			"Time a ready request waited for a free window slot.",
			metrics.DurationBuckets, "issuer").With(cfg.Issuer),
		hedgeLaunched: reg.CounterVec("ioengine_hedges_launched_total",
			"Hedged duplicate requests launched on spare slots for stragglers.",
			"issuer").With(cfg.Issuer),
		hedgeWon: reg.CounterVec("ioengine_hedges_won_total",
			"Hedges that completed before their primary (the duplicate's result won).",
			"issuer").With(cfg.Issuer),
		hedgeCanceled: reg.CounterVec("ioengine_hedges_cancelled_total",
			"Hedges whose primary completed first (the duplicate's result was suppressed).",
			"issuer").With(cfg.Issuer),
		wallTimers: reg.CounterVec("ioengine_wallclock_timers_total",
			"Wall-clock straggler timers armed (real-time mode only; zero on the fabric).",
			"issuer").With(cfg.Issuer),
	}
	for c := Class(0); c < numClasses; c++ {
		e.classReqs[c] = reg.CounterVec("ioengine_class_requests_total",
			"Requests issued per QoS priority class.",
			"issuer", "class").With(cfg.Issuer, c.String())
		e.classInflight[c] = reg.GaugeVec("ioengine_class_inflight",
			"Requests currently occupying window slots, per QoS class.",
			"issuer", "class").With(cfg.Issuer, c.String())
		e.classWait[c] = reg.HistogramVec("ioengine_class_slot_wait_seconds",
			"Slot-wait time per QoS class.",
			metrics.DurationBuckets, "issuer", "class").With(cfg.Issuer, c.String())
	}
	return e
}

// Prepare turns mapper extents into the engine's request stream: adjacent
// extents on the same device that are contiguous in both logical and device
// space are merged into one request, then every request is split against
// MaxTransfer.  Order is preserved, so a given extent list always produces
// the same requests in the same sequence.
func (e *Engine) Prepare(extents []stripe.Extent) []stripe.Extent {
	merged := e.coalesceExtents(extents)
	if e.cfg.MaxTransfer <= 0 {
		return merged
	}
	out := make([]stripe.Extent, 0, len(merged))
	for _, x := range merged {
		for off := int64(0); off < x.Len; off += e.cfg.MaxTransfer {
			n := e.cfg.MaxTransfer
			if off+n > x.Len {
				n = x.Len - off
			}
			out = append(out, stripe.Extent{Dev: x.Dev, Off: x.Off + off, DevOff: x.DevOff + off, Len: n})
		}
	}
	if extra := len(out) - len(merged); extra > 0 {
		e.splits.Add(uint64(extra))
	}
	return out
}

// coalesceExtents merges runs that are contiguous on one device.  Merging
// requires logical contiguity too: a request's payload is addressed by its
// logical offset, so device-contiguous but logically scattered ranges stay
// separate.
func (e *Engine) coalesceExtents(in []stripe.Extent) []stripe.Extent {
	if len(in) < 2 {
		return in
	}
	out := make([]stripe.Extent, 0, len(in))
	out = append(out, in[0])
	for _, x := range in[1:] {
		last := &out[len(out)-1]
		if x.Dev == last.Dev && x.Off == last.Off+last.Len && x.DevOff == last.DevOff+last.Len {
			last.Len += x.Len
			e.coalesced.Inc()
			continue
		}
		out = append(out, x)
	}
	return out
}

// SteerReplicas rewrites read extents produced by rm.ReadMap onto each
// extent's least-loaded replica device, judged by the engine's live
// per-device in-flight counts.  Ties keep the extent where ReadMap's seed
// placed it (then the lowest replica index), so steering is deterministic:
// with no load imbalance it is the identity.
func (e *Engine) SteerReplicas(rm *stripe.Replicated, exts []stripe.Extent) []stripe.Extent {
	n := rm.Inner.NumDevices()
	if rm.Copies < 2 || n <= 0 {
		return exts
	}
	out := make([]stripe.Extent, len(exts))
	e.devMu.Lock()
	for i, x := range exts {
		base := x.Dev % n
		best, bestLoad := x.Dev, e.devLoad[x.Dev]
		for r := 0; r < rm.Copies; r++ {
			if d := base + r*n; e.devLoad[d] < bestLoad {
				best, bestLoad = d, e.devLoad[d]
			}
		}
		x.Dev = best
		out[i] = x
	}
	e.devMu.Unlock()
	return out
}

func (e *Engine) devBegin(dev int) {
	if dev < 0 {
		return
	}
	e.devMu.Lock()
	e.devLoad[dev]++
	e.devMu.Unlock()
}

func (e *Engine) devEnd(dev int) {
	if dev < 0 {
		return
	}
	e.devMu.Lock()
	e.devLoad[dev]--
	e.devMu.Unlock()
}

// firstError records the lowest-indexed failure across concurrent requests.
type firstError struct {
	mu  sync.Mutex
	idx int
	err error
}

func (f *firstError) record(i int, err error) {
	f.mu.Lock()
	if f.err == nil || i < f.idx {
		f.idx, f.err = i, err
	}
	f.mu.Unlock()
}

func (f *firstError) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Run executes every request with at most the window in flight, applying the
// policies (outermost first) around fn.  It blocks the caller until all
// issued requests complete and returns the lowest-indexed request's error,
// or nil.  Once any request fails, no further requests are issued.  Run is
// a foreground, unhedged RunWith.
func (e *Engine) Run(ctx *rpc.Ctx, reqs []stripe.Extent, fn DoFunc, policies ...Policy) error {
	return e.RunWith(ctx, RunOpts{}, reqs, fn, policies...)
}

// RunWith is Run with explicit QoS class and hedging options.
func (e *Engine) RunWith(ctx *rpc.Ctx, opts RunOpts, reqs []stripe.Extent, fn DoFunc, policies ...Policy) error {
	if len(reqs) == 0 {
		return nil
	}
	for i := len(policies) - 1; i >= 0; i-- {
		fn = policies[i](fn)
	}
	return e.RunIndexed(ctx, opts, reqs,
		func(ctx *rpc.Ctx, _ int, r stripe.Extent) error { return fn(ctx, r) })
}

// IndexedDoFunc is a DoFunc that also receives the request's index in the
// run's extent list.  Cross-file write-back batches use it to dispatch
// each extent to its owning file's ladder.
type IndexedDoFunc func(ctx *rpc.Ctx, i int, r stripe.Extent) error

// RunIndexed runs reqs under opts like RunWith, delivering each extent's
// index in reqs to fn.  Unlike RunWith it takes no policies: a batch mixes
// extents with different failure ladders, so the caller pre-composes the
// right ladder into fn per index.
//
// The schedule is the sliding window: the issue loop blocks on a free slot,
// then hands the request to its own process/goroutine, so a completing
// transfer immediately admits the next one.
func (e *Engine) RunIndexed(ctx *rpc.Ctx, opts RunOpts, reqs []stripe.Extent, fn IndexedDoFunc) error {
	if len(reqs) == 0 {
		return nil
	}
	e.requests.Add(uint64(len(reqs)))
	e.classReqs[opts.Class].Add(uint64(len(reqs)))
	hedge := opts.Hedge && e.cfg.Hedge
	if len(reqs) == 1 && !hedge {
		// Degenerate fan-out (one extent per gathered chunk is the common
		// NFS case): run on the caller, still under the window bound.
		e.acquire(ctx, opts.Class)
		defer e.release(opts.Class)
		start := ctx.Stamp()
		e.devBegin(reqs[0].Dev)
		err := fn(ctx, 0, reqs[0])
		e.devEnd(reqs[0].Dev)
		e.observeLatency(ctx.Since(start).Seconds())
		return err
	}
	// done counts per-REQUEST completions, not per-worker exits: issue adds
	// one unit per request, and whichever copy (primary or hedge) completes
	// first signals it.  That is what makes hedging effective — Run unblocks
	// the moment every request has a winning completion, while losing
	// duplicates keep running detached just long enough to return their
	// window slots.
	var ferr firstError
	var done rpc.Group
	for i, r := range reqs {
		if ferr.get() != nil {
			break
		}
		e.issue(ctx, &done, i, r, fn, &ferr, opts, hedge)
	}
	done.Wait(ctx)
	return ferr.get()
}

// acquire takes one window slot for class, recording slot-wait and
// occupancy.
func (e *Engine) acquire(ctx *rpc.Ctx, class Class) {
	start := ctx.Stamp()
	e.gate.acquire(ctx, class)
	wait := ctx.Since(start)
	e.slotWait.ObserveDuration(wait)
	e.classWait[class].ObserveDuration(wait)
	e.noteIssued(class)
}

// tryAcquire takes a slot only if one is free right now and no request is
// queued for it — the hedge admission rule: duplicates ride spare capacity
// and never displace first-copy work.
func (e *Engine) tryAcquire(class Class) bool {
	if !e.gate.tryAcquire(class) {
		return false
	}
	e.noteIssued(class)
	return true
}

func (e *Engine) noteIssued(class Class) {
	e.inflight.Inc()
	e.classInflight[class].Inc()
	e.occupancy.Observe(float64(e.inflight.Value()))
}

// release returns one window slot.
func (e *Engine) release(class Class) {
	e.inflight.Dec()
	e.classInflight[class].Dec()
	e.gate.release(class)
}

// observeLatency feeds one completed request's service time into the
// hedging EWMA.
func (e *Engine) observeLatency(sec float64) {
	e.latMu.Lock()
	if e.latEWMA == 0 {
		e.latEWMA = sec
	} else {
		e.latEWMA += (sec - e.latEWMA) / 8
	}
	e.latMu.Unlock()
}

// hedgeThreshold is the current straggler threshold: stragglerFactor times
// the latency EWMA, floored at stragglerFloor.
func (e *Engine) hedgeThreshold() time.Duration {
	e.latMu.Lock()
	ewma := e.latEWMA
	e.latMu.Unlock()
	d := time.Duration(ewma * stragglerFactor * float64(time.Second))
	if d < stragglerFloor {
		d = stragglerFloor
	}
	return d
}

// reqState is the per-request completion record shared by a primary and its
// hedge: whichever copy finishes first marks done and is the one recorded.
type reqState struct {
	mu     sync.Mutex
	done   bool
	hedged bool
}

// complete records one copy's outcome and reports whether it won the
// request.  Exactly one copy per request passes the first-completion gate,
// whatever the interleaving — that copy records the error (if any) and feeds
// the latency EWMA; the loser is suppressed.
func (e *Engine) complete(st *reqState, i int, err error, ferr *firstError, isHedge bool, sec float64) bool {
	st.mu.Lock()
	first := !st.done
	if first {
		st.done = true
	}
	st.mu.Unlock()
	if first {
		if err != nil {
			ferr.record(i, err)
		}
		if isHedge {
			e.hedgeWon.Inc()
		}
		e.observeLatency(sec)
		return true
	}
	if isHedge {
		e.hedgeCanceled.Inc()
	}
	return false
}

// issue blocks on a free window slot, then hands request i to its own
// worker: done gains one unit — the request's completion — and the first
// copy to finish signals it.  With hedging, a straggler watcher launches a
// duplicate on a spare slot once the request outlives the adaptive
// threshold.
func (e *Engine) issue(ctx *rpc.Ctx, done *rpc.Group, i int, r stripe.Extent, fn IndexedDoFunc, ferr *firstError, opts RunOpts, hedge bool) {
	e.acquire(ctx, opts.Class)
	st := &reqState{}
	done.Add(ctx, 1)
	e.launchCopy(ctx, done, st, i, r, fn, ferr, opts.Class, false)
	if hedge {
		e.watchStraggler(ctx, done, st, i, r, fn, ferr, opts)
	}
}

// launchCopy runs one copy of request i — the primary or its hedge — as its
// own flow, on a slot the caller already holds.  The copy releases the slot
// when it returns, win or lose, so the window bound holds even while a
// losing straggler is still running after Run unblocked.
func (e *Engine) launchCopy(ctx *rpc.Ctx, done *rpc.Group, st *reqState, i int, r stripe.Extent, fn IndexedDoFunc, ferr *firstError, class Class, isHedge bool) {
	suffix := "/io"
	if isHedge {
		suffix = "/hedge"
	}
	ctx.Go(e.cfg.Name+suffix, func(c *rpc.Ctx) {
		start := c.Stamp()
		e.devBegin(r.Dev)
		err := fn(c, i, r)
		e.devEnd(r.Dev)
		won := e.complete(st, i, err, ferr, isHedge, c.Since(start).Seconds())
		e.release(class)
		if won {
			done.Done(c)
		}
	})
}

// watchStraggler arms the straggler timer for one request: a flow that
// pauses for the threshold on the mode's clock (virtual time under the
// simulation kernel, so hedged runs stay deterministic by seed), then tries
// to hedge.  The watcher runs outside done — Run never waits on a timer,
// only on issued copies.
func (e *Engine) watchStraggler(ctx *rpc.Ctx, done *rpc.Group, st *reqState, i int, r stripe.Extent, fn IndexedDoFunc, ferr *firstError, opts RunOpts) {
	d := e.hedgeThreshold()
	// Mode test on purpose: the counter exists to prove that no wall-clock
	// timer is ever armed on the fabric (docs/METRICS.md).
	if ctx.P == nil {
		e.wallTimers.Inc()
	}
	ctx.Go(e.cfg.Name+"/hedge-timer", func(c *rpc.Ctx) {
		c.Pause(d)
		e.tryHedge(c, done, st, i, r, fn, ferr, opts)
	})
}

// tryHedge launches the duplicate if the primary is still in flight and a
// spare slot is free.  The duplicate joins the race for the request's single
// unit of done, which the primary reserved at issue: whichever copy completes
// first signals it, so a winning hedge unblocks Run while the straggling
// primary is still out.
func (e *Engine) tryHedge(ctx *rpc.Ctx, done *rpc.Group, st *reqState, i int, r stripe.Extent, fn IndexedDoFunc, ferr *firstError, opts RunOpts) {
	st.mu.Lock()
	if st.done || st.hedged {
		st.mu.Unlock()
		return
	}
	if !e.tryAcquire(opts.Class) {
		st.mu.Unlock()
		return
	}
	st.hedged = true
	st.mu.Unlock()
	e.hedgeLaunched.Inc()
	e.launchCopy(ctx, done, st, i, r, fn, ferr, opts.Class, true)
}
