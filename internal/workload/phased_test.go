package workload

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/faults"
	"dpnfs/internal/rpc"
)

// TestPhasedWindows drives the phased-experiment skeleton with every
// completion paused onto an exact offset: a completion at a boundary counts
// in the later window, the windows last b1, b2-b1 and elapsed-b2, and a TCP
// cluster is refused before its setup runs.
func TestPhasedWindows(t *testing.T) {
	const b1, b2, end = 1 * time.Second, 3 * time.Second, 7 * time.Second
	// 1 MB just before b1, 4 MB at b1 and 12 MB at b2: 1 MB/s over b1,
	// 2 MB/s over b2-b1 and 3 MB/s over end-b2.  A boundary completion
	// counted in the earlier window, or a window of the wrong length,
	// moves at least two of the three.
	completions := []completion{{b1 - time.Nanosecond, 1e6}, {b1, 4e6}, {b2, 12e6}}
	e := phased{
		name: "phased",
		setup: func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
			f, err := m.Create(ctx, "/phased")
			if err != nil {
				return err
			}
			return m.Close(ctx, f)
		},
		plan: faults.NewPlan(1),
		measure: func(ctx *rpc.Ctx, m *cluster.Mount, i int, r *phaseRun) error {
			pauseTo := func(at time.Duration) error {
				if d := at - r.since(ctx); d > 0 {
					ctx.Pause(d)
				}
				if got := r.since(ctx); got != at {
					return fmt.Errorf("paused to %v, want %v", got, at)
				}
				return nil
			}
			for _, c := range completions {
				if err := pauseTo(c.at); err != nil {
					return err
				}
				r.record(ctx, c.bytes)
			}
			return pauseTo(end)
		},
		bounds: fixedBounds(b1, b2),
	}

	t.Run("sim", func(t *testing.T) {
		cl := cluster.New(cluster.Config{Arch: cluster.ArchDirectPNFS, Clients: 1})
		defer cl.Close()
		got, err := e.run(cl)
		if err != nil {
			t.Fatal(err)
		}
		if want := (Phases{Before: 1, During: 2, After: 3}); got != want {
			t.Fatalf("phases %+v, want %+v", got, want)
		}
	})

	t.Run("tcp", func(t *testing.T) {
		cl := cluster.New(cluster.Config{Arch: cluster.ArchDirectPNFS, Clients: 1, Transport: cluster.TransportTCP, Real: true})
		defer cl.Close()
		if _, err := e.run(cl); err == nil || !strings.Contains(err.Error(), "requires the sim transport") {
			t.Fatalf("TCP run: err %v, want a sim-transport refusal", err)
		}
		if _, err := cl.PVFSMeta.Namespace().LookupPath("/phased"); err == nil {
			t.Fatal("the refused run's setup created /phased")
		}
	})
}
