package bench

import (
	"reflect"
	"testing"
)

// TestWindowSweepSlidingWindowBeatsWaves pins the I/O engine's headline
// property: on mixed-size IOR, throughput never falls as the sliding
// in-flight window widens, and a window of 4 measurably beats serial issue
// (window 1) — more slots keep more devices busy behind a slow transfer.
// The figure must also be deterministic, like every other figure in the
// package.
func TestWindowSweepSlidingWindowBeatsWaves(t *testing.T) {
	opt := Options{Scale: 0.05, Clients: []int{2}}
	fig, err := WindowSweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	const series = "PVFS2 window"
	prev := 0.0
	for _, w := range windowSweepSizes {
		v := fig.Value(series, w)
		if v < 0 {
			t.Fatalf("missing point at window %d", w)
		}
		if v < prev {
			t.Errorf("window %d: %.2f MB/s fell below the narrower window's %.2f MB/s", w, v, prev)
		}
		prev = v
	}
	if w1, w4 := fig.Value(series, 1), fig.Value(series, 4); w4 <= w1 {
		t.Errorf("window 4 (%.2f MB/s) no better than serial issue (%.2f MB/s) — the sweep is vacuous", w4, w1)
	}

	again, err := WindowSweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fig, again) {
		t.Errorf("window sweep not deterministic:\n%v\nvs\n%v", fig, again)
	}
}
