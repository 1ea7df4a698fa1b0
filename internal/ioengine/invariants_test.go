package ioengine

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"dpnfs/internal/metrics"
	"dpnfs/internal/rpc"
	"dpnfs/internal/sim"
	"dpnfs/internal/stripe"
)

// byteOwner identifies where one logical byte lives on a device.
type byteOwner struct {
	dev    int
	devOff int64
}

// coverageMap expands extents to a per-logical-byte ownership map, failing on
// any byte claimed twice.  Exact byte accounting is the strongest form of the
// Prepare contract: coalescing and splitting may reshape requests arbitrarily
// as long as every input byte is issued exactly once at the same device
// address.
func coverageMap(t *testing.T, label string, exts []stripe.Extent) map[int64]byteOwner {
	t.Helper()
	m := make(map[int64]byteOwner)
	for _, x := range exts {
		if x.Len <= 0 {
			t.Fatalf("%s: extent with non-positive length: %+v", label, x)
		}
		for b := int64(0); b < x.Len; b++ {
			off := x.Off + b
			if prev, dup := m[off]; dup {
				t.Fatalf("%s: logical byte %d covered twice (%+v and %+v)", label, off, prev, x)
			}
			m[off] = byteOwner{dev: x.Dev, devOff: x.DevOff + b}
		}
	}
	return m
}

// checkPrepareInvariants asserts the full Prepare contract for one input:
// exact byte coverage (no loss, no duplication, same device addresses), the
// MaxTransfer cap, and per-device offset monotonicity (splitting/coalescing
// must not reorder a device's stream).
func checkPrepareInvariants(t *testing.T, maxTransfer int64, in, out []stripe.Extent) {
	t.Helper()
	want := coverageMap(t, "input", in)
	got := coverageMap(t, "output", out)
	if len(got) != len(want) {
		t.Fatalf("output covers %d bytes, input has %d", len(got), len(want))
	}
	for off, w := range want {
		g, ok := got[off]
		if !ok {
			t.Fatalf("logical byte %d lost by Prepare", off)
		}
		if g != w {
			t.Fatalf("logical byte %d moved: input %+v, output %+v", off, w, g)
		}
	}
	lastOff := make(map[int]int64)
	for _, x := range out {
		if maxTransfer > 0 && x.Len > maxTransfer {
			t.Fatalf("extent %+v exceeds MaxTransfer %d", x, maxTransfer)
		}
		if prev, seen := lastOff[x.Dev]; seen && x.DevOff < prev {
			t.Fatalf("device %d stream went backwards: %d after %d", x.Dev, x.DevOff, prev)
		}
		lastOff[x.Dev] = x.DevOff + x.Len
	}
}

// randomExtents builds a non-overlapping request list the way stripe mappers
// do: ascending logical offsets (with occasional gaps), round-robin-ish
// device placement, and mixed extent sizes so some runs coalesce and some
// split.
func randomExtents(rng *rand.Rand) []stripe.Extent {
	n := 1 + rng.Intn(24)
	out := make([]stripe.Extent, 0, n)
	off := int64(rng.Intn(4096))
	devOff := make(map[int]int64)
	for i := 0; i < n; i++ {
		dev := rng.Intn(4)
		ln := int64(1 + rng.Intn(700))
		if rng.Intn(3) == 0 {
			off += int64(rng.Intn(512)) // logical gap
		}
		if rng.Intn(4) != 0 {
			// Device-contiguous continuation: eligible for coalescing when
			// the logical stream is also contiguous.
			out = append(out, stripe.Extent{Dev: dev, Off: off, DevOff: devOff[dev], Len: ln})
		} else {
			out = append(out, stripe.Extent{Dev: dev, Off: off, DevOff: devOff[dev] + int64(rng.Intn(256)) + 1, Len: ln})
		}
		devOff[dev] = out[len(out)-1].DevOff + ln
		off += ln
	}
	return out
}

// TestPrepareInvariants drives seeded-random mapper-shaped inputs through
// Prepare across a spread of MaxTransfer settings and asserts exact coverage.
func TestPrepareInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, maxTransfer := range []int64{0, 1, 64, 333, 1 << 20} {
		e := New(Config{MaxTransfer: maxTransfer, Metrics: metrics.NewRegistry()})
		for trial := 0; trial < 200; trial++ {
			in := randomExtents(rng)
			checkPrepareInvariants(t, maxTransfer, in, e.Prepare(in))
		}
	}
}

// FuzzPrepare is the CI fuzz target for the same contract: the raw input
// bytes are decoded into an extent list (arbitrary devices, lengths, and
// contiguity patterns) and Prepare's output must cover it exactly.
func FuzzPrepare(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, int64(64))
	f.Add([]byte{0, 0, 0, 0}, int64(0))
	f.Add([]byte{255, 1, 128, 7, 9, 200}, int64(1))
	f.Fuzz(func(t *testing.T, raw []byte, maxTransfer int64) {
		if maxTransfer < 0 || maxTransfer > 1<<20 || len(raw) > 256 {
			t.Skip()
		}
		var in []stripe.Extent
		off := int64(0)
		devOff := make(map[int]int64)
		for i := 0; i+2 < len(raw); i += 3 {
			dev := int(raw[i] % 5)
			ln := int64(raw[i+1]) + 1
			gap := int64(raw[i+2] % 16)
			off += gap
			in = append(in, stripe.Extent{Dev: dev, Off: off, DevOff: devOff[dev] + gap, Len: ln})
			devOff[dev] += gap + ln
			off += ln
		}
		if len(in) == 0 {
			t.Skip()
		}
		e := New(Config{MaxTransfer: maxTransfer, Metrics: metrics.NewRegistry()})
		checkPrepareInvariants(t, maxTransfer, in, e.Prepare(in))
	})
}

// hedgeLoad drives a hedged window where chosen straggler requests sleep far
// past the hedge threshold on their first execution and complete fast on the
// duplicate, while a tracker audits the combined in-flight bound.
type hedgeLoad struct {
	mu       sync.Mutex
	execs    map[int64]int // extent offset -> executions (primary + hedges)
	inflight int
	peak     int
}

func (h *hedgeLoad) enter(r stripe.Extent) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.execs[r.Off]++
	h.inflight++
	if h.inflight > h.peak {
		h.peak = h.inflight
	}
	return h.execs[r.Off]
}

func (h *hedgeLoad) exit() {
	h.mu.Lock()
	h.inflight--
	h.mu.Unlock()
}

// TestWindowBoundHoldsWithHedges checks the hedge admission rule: even with
// stragglers forcing duplicates, the combined primaries+hedges in flight
// never exceed MaxFlight, every request's winner is recorded exactly once,
// and the hedge counters reconcile (won + cancelled = launched) once the
// kernel drains the losers.
func TestWindowBoundHoldsWithHedges(t *testing.T) {
	const window = 4
	e := New(Config{
		MaxFlight: window, Hedge: true, Metrics: metrics.NewRegistry(),
	})
	// Fast requests first, stragglers last: when the straggler timers fire
	// the queue has drained, two slots are spare, and the two hedges fill
	// the window exactly — a hedge admitted past the bound would show up as
	// peak > window.  (Hedge timers are one-shot: a straggler whose
	// threshold passes while the window is saturated is simply not hedged.)
	reqs := []stripe.Extent{
		{Dev: 1, Off: 0, Len: 64}, {Dev: 2, Off: 64, Len: 64},
		{Dev: 4, Off: 128, Len: 64}, {Dev: 5, Off: 192, Len: 64},
		{Dev: 0, Off: 256, Len: 64}, {Dev: 3, Off: 320, Len: 64},
	}
	load := &hedgeLoad{execs: make(map[int64]int)}
	fn := func(ctx *rpc.Ctx, r stripe.Extent) error {
		n := load.enter(r)
		defer load.exit()
		d := time.Millisecond
		if r.Dev%3 == 0 && n == 1 {
			d = 300 * time.Millisecond // straggling primary
		}
		ctx.P.Sleep(d)
		return nil
	}
	k := sim.NewKernel(1)
	k.Go("test", func(p *sim.Proc) {
		if err := e.RunWith(&rpc.Ctx{P: p}, RunOpts{Hedge: true}, reqs, fn); err != nil {
			t.Errorf("RunWith: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if load.peak > window {
		t.Errorf("in-flight peak %d exceeded window %d (hedges must ride spare slots)", load.peak, window)
	}
	launched, won, canceled := e.hedgeLaunched.Value(), e.hedgeWon.Value(), e.hedgeCanceled.Value()
	if launched == 0 {
		t.Fatal("no hedges launched — stragglers never crossed the threshold")
	}
	if won == 0 {
		t.Error("no hedge won despite 300x straggling primaries")
	}
	if won+canceled != launched {
		t.Errorf("hedge counters do not reconcile: launched=%d won=%d cancelled=%d", launched, won, canceled)
	}
	if got := e.inflight.Value(); got != 0 {
		t.Errorf("inflight gauge %d after drain, want 0", got)
	}
	for off, n := range load.execs {
		if n < 1 || n > 2 {
			t.Errorf("extent at %d executed %d times, want 1 or 2", off, n)
		}
	}
	if e.wallTimers.Value() != 0 {
		t.Errorf("simulated run armed %d wall-clock timers, want 0", e.wallTimers.Value())
	}
}

// TestHedgesRealTime is the wall-clock twin, run under -race: hedge timers
// are real goroutines, the loser keeps running after Run returns, and the
// exactly-once completion contract must hold across those races.
func TestHedgesRealTime(t *testing.T) {
	const window = 4
	e := New(Config{
		MaxFlight: window, Hedge: true, Metrics: metrics.NewRegistry(),
	})
	// As in the sim twin: fast requests first so slots are spare when the
	// straggler timers fire.
	reqs := []stripe.Extent{
		{Dev: 1, Off: 0, Len: 64}, {Dev: 3, Off: 64, Len: 64},
		{Dev: 5, Off: 128, Len: 64}, {Dev: 7, Off: 192, Len: 64},
		{Dev: 0, Off: 256, Len: 64}, {Dev: 2, Off: 320, Len: 64},
	}
	load := &hedgeLoad{execs: make(map[int64]int)}
	var alive sync.WaitGroup
	fn := func(ctx *rpc.Ctx, r stripe.Extent) error {
		alive.Add(1)
		defer alive.Done()
		n := load.enter(r)
		defer load.exit()
		d := 100 * time.Microsecond
		if r.Dev%2 == 0 && n == 1 {
			d = 50 * time.Millisecond
		}
		time.Sleep(d)
		return nil
	}
	if err := e.RunWith(&rpc.Ctx{}, RunOpts{Hedge: true}, reqs, fn); err != nil {
		t.Fatalf("RunWith: %v", err)
	}
	// Run returns on first-wins; losing copies may still be in flight.
	// Drain them before auditing the counters.
	deadline := time.Now().Add(5 * time.Second)
	for e.inflight.Value() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	alive.Wait()
	if load.peak > window {
		t.Errorf("in-flight peak %d exceeded window %d", load.peak, window)
	}
	launched, won, canceled := e.hedgeLaunched.Value(), e.hedgeWon.Value(), e.hedgeCanceled.Value()
	if launched == 0 {
		t.Fatal("no hedges launched in real-time mode")
	}
	if won+canceled != launched {
		t.Errorf("hedge counters do not reconcile: launched=%d won=%d cancelled=%d", launched, won, canceled)
	}
	if e.wallTimers.Value() != uint64(launched) && e.wallTimers.Value() == 0 {
		t.Error("real-time hedging armed no wall-clock timers")
	}
	for off, n := range load.execs {
		if n < 1 || n > 2 {
			t.Errorf("extent at %d executed %d times, want 1 or 2", off, n)
		}
	}
}

// TestBackgroundShareAndPriority pins the QoS gate: background work is held
// to its window share while foreground runs concurrently, and every request
// still completes.
func TestBackgroundShareAndPriority(t *testing.T) {
	e := New(Config{MaxFlight: 4, BackgroundShare: 0.5, Metrics: metrics.NewRegistry()})
	var mu sync.Mutex
	bgInflight, bgPeak := 0, 0
	bg := func(ctx *rpc.Ctx, r stripe.Extent) error {
		mu.Lock()
		bgInflight++
		if bgInflight > bgPeak {
			bgPeak = bgInflight
		}
		mu.Unlock()
		ctx.P.Sleep(2 * time.Millisecond)
		mu.Lock()
		bgInflight--
		mu.Unlock()
		return nil
	}
	fg := func(ctx *rpc.Ctx, r stripe.Extent) error {
		ctx.P.Sleep(time.Millisecond)
		return nil
	}
	k := sim.NewKernel(1)
	var wg sim.WaitGroup
	wg.Add(2)
	k.Go("bg", func(p *sim.Proc) {
		defer wg.Done()
		if err := e.RunWith(&rpc.Ctx{P: p}, RunOpts{Class: Background}, scattered(10, 64), bg); err != nil {
			t.Error(err)
		}
	})
	k.Go("fg", func(p *sim.Proc) {
		defer wg.Done()
		if err := e.RunWith(&rpc.Ctx{P: p}, RunOpts{Class: Foreground}, scattered(10, 64), fg); err != nil {
			t.Error(err)
		}
	})
	k.Go("wait", func(p *sim.Proc) { wg.Wait(p) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// BackgroundShare 0.5 of a 4-slot window caps background at 2 slots.
	if bgPeak > 2 {
		t.Errorf("background peak %d exceeded its share cap 2", bgPeak)
	}
	if got := e.classReqs[Background].Value(); got != 10 {
		t.Errorf("background class counter %d, want 10", got)
	}
	if got := e.classReqs[Foreground].Value(); got != 10 {
		t.Errorf("foreground class counter %d, want 10", got)
	}
}

// TestSteerReplicasPicksLeastLoaded pins steering determinism: with no load
// it is the identity, with load on the primary copy it moves reads to the
// idle replica, and ties keep the seeded placement.
func TestSteerReplicasPicksLeastLoaded(t *testing.T) {
	rm, err := stripe.NewReplicated(64, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Metrics: metrics.NewRegistry()})

	exts := []stripe.Extent{{Dev: 1, Off: 0, DevOff: 0, Len: 64}}
	got := e.SteerReplicas(rm, exts)
	if got[0].Dev != 1 {
		t.Errorf("unloaded steering moved dev %d -> %d, want identity", 1, got[0].Dev)
	}

	e.devBegin(1) // primary copy now busy
	got = e.SteerReplicas(rm, exts)
	if got[0].Dev != 4 { // 1 + 1*3: the same stripe column on the replica set
		t.Errorf("loaded steering picked dev %d, want replica 4", got[0].Dev)
	}
	e.devEnd(1)

	// Equal load on both copies: keep the seeded placement.
	e.devBegin(1)
	e.devBegin(4)
	got = e.SteerReplicas(rm, exts)
	if got[0].Dev != 1 {
		t.Errorf("tied steering moved dev %d -> %d, want identity", 1, got[0].Dev)
	}
}
