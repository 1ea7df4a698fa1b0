package ioengine

import (
	"testing"
	"time"

	"dpnfs/internal/rpc"
	"dpnfs/internal/sim"
	"dpnfs/internal/stripe"
)

// benchExtents is a mixed-size request stream over six devices: bulk runs
// that split against MaxTransfer next to slivers that don't, so slots free
// up at uneven times.
func benchExtents() []stripe.Extent {
	sizes := []int64{2 << 20, 8 << 10, 512 << 10, 64 << 10, 1 << 20, 4 << 10}
	var out []stripe.Extent
	var off int64
	for i := 0; i < 48; i++ {
		n := sizes[i%len(sizes)]
		out = append(out, stripe.Extent{Dev: i % 6, Off: off, DevOff: off / 6, Len: n})
		off += n
	}
	return out
}

// BenchmarkEngineWindow drives one full Prepare+Run cycle per iteration on a
// fresh simulation kernel, with per-request virtual service time
// proportional to length (plus a per-device skew), and reports the
// schedule's virtual completion time alongside the usual wall-clock and
// allocation numbers (allocs/op is the dispatch overhead CI bounds).
func BenchmarkEngineWindow(b *testing.B) {
	var virtual sim.Time
	for i := 0; i < b.N; i++ {
		e := New(Config{MaxFlight: 4, MaxTransfer: 256 << 10})
		k := sim.NewKernel(1)
		k.Go("bench", func(p *sim.Proc) {
			reqs := e.Prepare(benchExtents())
			err := e.Run(&rpc.Ctx{P: p}, reqs, func(ctx *rpc.Ctx, r stripe.Extent) error {
				ctx.P.Sleep(time.Duration(r.Len)*time.Nanosecond + time.Duration(r.Dev)*time.Microsecond)
				return nil
			})
			if err != nil {
				b.Error(err)
			}
			virtual = p.Now()
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(virtual)/1e6, "virtual-ms/run")
}
