package ioengine

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dpnfs/internal/metrics"
	"dpnfs/internal/rpc"
	"dpnfs/internal/sim"
	"dpnfs/internal/stripe"
)

// reqsOn builds n one-byte-apart requests spread round-robin over devs
// devices, contiguous per device so they would coalesce if adjacent.
func seqExtents(n int, size int64) []stripe.Extent {
	out := make([]stripe.Extent, n)
	for i := range out {
		out[i] = stripe.Extent{Dev: 0, Off: int64(i) * size, DevOff: int64(i) * size, Len: size}
	}
	return out
}

// scattered builds n requests on distinct devices (nothing coalesces).
func scattered(n int, size int64) []stripe.Extent {
	out := make([]stripe.Extent, n)
	for i := range out {
		out[i] = stripe.Extent{Dev: i, Off: int64(i) * size, DevOff: 0, Len: size}
	}
	return out
}

// runSim executes body as a simulated process and drives the kernel.
func runSim(t *testing.T, body func(ctx *rpc.Ctx)) {
	t.Helper()
	k := sim.NewKernel(1)
	k.Go("test", func(p *sim.Proc) { body(&rpc.Ctx{P: p}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPrepareCoalescesAndSplits(t *testing.T) {
	cases := []struct {
		name        string
		maxTransfer int64
		in          []stripe.Extent
		want        []stripe.Extent
	}{
		{
			name: "adjacent same device merges",
			in:   seqExtents(4, 1024),
			want: []stripe.Extent{{Dev: 0, Off: 0, DevOff: 0, Len: 4096}},
		},
		{
			name: "different devices stay separate",
			in:   scattered(3, 1024),
			want: scattered(3, 1024),
		},
		{
			name: "device-contiguous but logically scattered stays separate",
			in: []stripe.Extent{
				{Dev: 0, Off: 0, DevOff: 0, Len: 512},
				{Dev: 0, Off: 4096, DevOff: 512, Len: 512},
			},
			want: []stripe.Extent{
				{Dev: 0, Off: 0, DevOff: 0, Len: 512},
				{Dev: 0, Off: 4096, DevOff: 512, Len: 512},
			},
		},
		{
			name:        "split against MaxTransfer",
			maxTransfer: 1024,
			in:          []stripe.Extent{{Dev: 2, Off: 100, DevOff: 50, Len: 2560}},
			want: []stripe.Extent{
				{Dev: 2, Off: 100, DevOff: 50, Len: 1024},
				{Dev: 2, Off: 1124, DevOff: 1074, Len: 1024},
				{Dev: 2, Off: 2148, DevOff: 2098, Len: 512},
			},
		},
		{
			name:        "coalesce before split",
			maxTransfer: 3072,
			in:          seqExtents(4, 1024),
			want: []stripe.Extent{
				{Dev: 0, Off: 0, DevOff: 0, Len: 3072},
				{Dev: 0, Off: 3072, DevOff: 3072, Len: 1024},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			e := New(Config{MaxTransfer: c.maxTransfer, Metrics: reg})
			got := e.Prepare(c.in)
			if len(got) != len(c.want) {
				t.Fatalf("got %d requests, want %d: %+v", len(got), len(c.want), got)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Errorf("request %d: got %+v, want %+v", i, got[i], c.want[i])
				}
			}
		})
	}
}

// tracker counts executions and the in-flight high-water mark.
type tracker struct {
	mu       sync.Mutex
	executed int
	inflight int
	peak     int
}

func (tr *tracker) enter() {
	tr.mu.Lock()
	tr.executed++
	tr.inflight++
	if tr.inflight > tr.peak {
		tr.peak = tr.inflight
	}
	tr.mu.Unlock()
}

func (tr *tracker) exit() {
	tr.mu.Lock()
	tr.inflight--
	tr.mu.Unlock()
}

// TestRunTable sweeps window sizes × coalescing × per-request error
// injection, in both simulated and real-time execution.
func TestRunTable(t *testing.T) {
	type tc struct {
		name      string
		window    int
		transfer  int64
		reqs      []stripe.Extent
		failAt    map[int]error // request index -> injected error
		wantErrAt int           // index whose error Run must return (-1: nil)
	}
	errA := errors.New("injected A")
	errB := errors.New("injected B")
	cases := []tc{
		{name: "window 1 serial", window: 1, reqs: scattered(6, 64), wantErrAt: -1},
		{name: "window 4", window: 4, reqs: scattered(10, 64), wantErrAt: -1},
		{name: "window wider than load", window: 32, reqs: scattered(5, 64), wantErrAt: -1},
		{name: "coalesced single request", window: 4, reqs: seqExtents(8, 64), wantErrAt: -1},
		{name: "split fan-out", window: 2, transfer: 64, reqs: []stripe.Extent{{Dev: 0, Len: 512}}, wantErrAt: -1},
		{
			name: "lowest-index error wins", window: 4,
			reqs:   scattered(12, 64),
			failAt: map[int]error{7: errB, 2: errA}, wantErrAt: 2,
		},
	}
	for _, mode := range []string{"sim", "realtime"} {
		for _, c := range cases {
			c := c
			t.Run(mode+"/"+c.name, func(t *testing.T) {
				e := New(Config{
					MaxFlight: c.window, MaxTransfer: c.transfer,
					Metrics: metrics.NewRegistry(),
				})
				reqs := e.Prepare(c.reqs)
				var tr tracker
				fn := func(ctx *rpc.Ctx, r stripe.Extent) error {
					tr.enter()
					defer tr.exit()
					// Heterogeneous service times exercise the window.
					if ctx.P != nil {
						ctx.P.Sleep(time.Duration(1+r.Dev%3) * time.Millisecond)
					}
					for i, q := range reqs {
						if q == r {
							if err := c.failAt[i]; err != nil {
								return err
							}
						}
					}
					return nil
				}
				var got error
				if mode == "sim" {
					runSim(t, func(ctx *rpc.Ctx) { got = e.Run(ctx, reqs, fn) })
				} else {
					got = e.Run(&rpc.Ctx{}, reqs, fn)
				}
				if c.wantErrAt < 0 {
					if got != nil {
						t.Fatalf("Run: %v", got)
					}
					if tr.executed != len(reqs) {
						t.Errorf("executed %d of %d requests", tr.executed, len(reqs))
					}
				} else if want := c.failAt[c.wantErrAt]; got != want {
					t.Errorf("Run returned %v, want request %d's error %v", got, c.wantErrAt, want)
				}
				if tr.peak > c.window {
					t.Errorf("in-flight peak %d exceeded window %d", tr.peak, c.window)
				}
			})
		}
	}
}

// TestRunSharedWindowAcrossConcurrentRuns checks the window is an
// engine-wide bound: two concurrent Runs on one engine never exceed
// MaxFlight combined.
func TestRunSharedWindowAcrossConcurrentRuns(t *testing.T) {
	e := New(Config{MaxFlight: 3, Metrics: metrics.NewRegistry()})
	var tr tracker
	fn := func(ctx *rpc.Ctx, r stripe.Extent) error {
		tr.enter()
		defer tr.exit()
		ctx.P.Sleep(time.Millisecond)
		return nil
	}
	k := sim.NewKernel(1)
	var wg sim.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		k.Go(fmt.Sprintf("run%d", i), func(p *sim.Proc) {
			defer wg.Done()
			if err := e.Run(&rpc.Ctx{P: p}, scattered(8, 64), fn); err != nil {
				t.Error(err)
			}
		})
	}
	k.Go("wait", func(p *sim.Proc) { wg.Wait(p) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.executed != 16 {
		t.Errorf("executed %d of 16", tr.executed)
	}
	if tr.peak > 3 {
		t.Errorf("combined in-flight peak %d exceeded shared window 3", tr.peak)
	}
}

func TestWithRetryRidesOutRetryableFailures(t *testing.T) {
	calls, retries := 0, 0
	pol := WithRetry(rpc.RetryPolicy{Max: 5, Base: time.Millisecond, Cap: time.Millisecond}, func() { retries++ })
	fn := pol(func(ctx *rpc.Ctx, r stripe.Extent) error {
		calls++
		if calls < 3 {
			return &rpc.DownError{Node: "io1"}
		}
		return nil
	})
	runSim(t, func(ctx *rpc.Ctx) {
		if err := fn(ctx, stripe.Extent{}); err != nil {
			t.Errorf("retry policy should have recovered: %v", err)
		}
	})
	if calls != 3 || retries != 2 {
		t.Errorf("calls=%d retries=%d, want 3 and 2", calls, retries)
	}

	// Non-retryable errors pass straight through.
	calls = 0
	perm := errors.New("permanent")
	fn = pol(func(ctx *rpc.Ctx, r stripe.Extent) error { calls++; return perm })
	runSim(t, func(ctx *rpc.Ctx) {
		if err := fn(ctx, stripe.Extent{}); err != perm {
			t.Errorf("got %v, want the permanent error", err)
		}
	})
	if calls != 1 {
		t.Errorf("non-retryable error was retried %d times", calls-1)
	}
}

func TestWithFallbackLadder(t *testing.T) {
	// Outermost policy is the last resort: Run(fn, last, first) means a
	// failure in fn consults first, then last.
	var order []string
	primary := func(ctx *rpc.Ctx, r stripe.Extent) error {
		order = append(order, "primary")
		return errors.New("primary failed")
	}
	first := WithFallback(func(ctx *rpc.Ctx, r stripe.Extent, err error) error {
		order = append(order, "recovery")
		return err // recovery declined
	})
	last := WithFallback(func(ctx *rpc.Ctx, r stripe.Extent, err error) error {
		order = append(order, "mds")
		return nil // handled
	})
	e := New(Config{MaxFlight: 2, Metrics: metrics.NewRegistry()})
	runSim(t, func(ctx *rpc.Ctx) {
		if err := e.Run(ctx, scattered(1, 64), primary, last, first); err != nil {
			t.Errorf("ladder should have recovered: %v", err)
		}
	})
	want := []string{"primary", "recovery", "mds"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("ladder order %v, want %v", order, want)
	}
}

// TestRepairLedgerOnce pins the exactly-once claim: the first caller runs
// the rewrite, later callers of the same key skip it, other keys are
// independent, and a failed rewrite releases its claim for a retry.
func TestRepairLedgerOnce(t *testing.T) {
	var l RepairLedger[int]
	runs := 0
	ok := func() error { runs++; return nil }
	if !l.Once(1, ok) || l.Once(1, ok) || runs != 1 {
		t.Fatalf("key 1: rewrite ran %d times, want once and only the first call true", runs)
	}
	if !l.Once(2, ok) || runs != 2 {
		t.Fatalf("key 2 was blocked by key 1's claim (runs=%d)", runs)
	}
	if l.Once(3, func() error { return errors.New("replica also failing") }) {
		t.Fatal("a failed rewrite reported success")
	}
	if !l.Once(3, ok) || runs != 3 {
		t.Fatalf("key 3: failed rewrite did not release the claim (runs=%d)", runs)
	}
}

// TestRunDeterministic pins virtual-time determinism: identical runs finish
// at identical virtual times with identical metric counts.
func TestRunDeterministic(t *testing.T) {
	elapsed := func() sim.Time {
		e := New(Config{MaxFlight: 4, MaxTransfer: 128, Metrics: metrics.NewRegistry()})
		k := sim.NewKernel(7)
		var end sim.Time
		k.Go("test", func(p *sim.Proc) {
			reqs := e.Prepare(seqExtents(64, 96))
			err := e.Run(&rpc.Ctx{P: p}, reqs, func(ctx *rpc.Ctx, r stripe.Extent) error {
				ctx.P.Sleep(time.Duration(r.Off%5+1) * time.Millisecond)
				return nil
			})
			if err != nil {
				t.Error(err)
			}
			end = p.Now()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	a, b := elapsed(), elapsed()
	if a != b || a == 0 {
		t.Errorf("virtual end times differ: %v vs %v", a, b)
	}
}

// TestMetricsRecorded checks the engine's observability contract
// (docs/METRICS.md): request, coalesce, and split counters move, and the
// occupancy histogram sees every issue.
func TestMetricsRecorded(t *testing.T) {
	reg := metrics.NewRegistry()
	e := New(Config{MaxFlight: 2, MaxTransfer: 128, Issuer: "test", Metrics: reg})
	reqs := e.Prepare(seqExtents(4, 128)) // coalesce 4 -> 1, split 1 -> 4
	runSim(t, func(ctx *rpc.Ctx) {
		if err := e.Run(ctx, reqs, func(ctx *rpc.Ctx, r stripe.Extent) error {
			ctx.P.Sleep(time.Millisecond)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	if got := e.requests.Value(); got != 4 {
		t.Errorf("requests_total = %d, want 4", got)
	}
	if got := e.coalesced.Value(); got != 3 {
		t.Errorf("coalesced_total = %d, want 3", got)
	}
	if got := e.splits.Value(); got != 3 {
		t.Errorf("split_total = %d, want 3", got)
	}
	if got := e.occupancy.Count(); got != 4 {
		t.Errorf("occupancy observations = %d, want 4", got)
	}
	if got := e.inflight.Value(); got != 0 {
		t.Errorf("inflight gauge = %d after Run, want 0", got)
	}
}
