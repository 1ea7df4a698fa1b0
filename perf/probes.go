package main

import (
	"fmt"
	"runtime"
	"time"

	"dpnfs/internal/ioengine"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/sim"
	"dpnfs/internal/simnet"
	"dpnfs/internal/store"
	"dpnfs/internal/store/cached"
	"dpnfs/internal/store/mem"
	"dpnfs/internal/store/wal"
	"dpnfs/internal/stripe"
	"dpnfs/internal/xdr"
)

// Probes time one layer's public API in a tight loop, with the message
// shapes the workloads produce: 2 MB bulk payloads (seq_*), 64 KB store
// chunks and small-file writes, ~100-byte metadata messages
// (smallfile_wal).  No cluster is involved.  A probe's number is the
// median over repetitions of the mean cost of a call within a repetition.

const (
	probeReps = 5
	bulk      = 2 << 20
	chunk     = 64 << 10
)

// probeOut is one probe's result.
type probeOut struct {
	ns     float64 // median ns per call
	allocs float64 // heap allocations per call, over all repetitions
	cpuNs  float64 // process CPU ns per call, over all repetitions
}

// probe times fn.  budget is the wall time the whole probe should take; fn
// is run once untimed first (pools fill, connections dial).
func probe(budget time.Duration, fn func()) probeOut {
	fn()
	// Size a repetition to budget/probeReps from a short calibration.
	n, took := 0, time.Duration(0)
	for t0 := time.Now(); took < budget/20 || n < 2; took = time.Since(t0) {
		fn()
		n++
	}
	per := int(float64(n) * float64(budget/probeReps) / float64(took))
	if per < 1 {
		per = 1
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := rusageCPU()
	reps := make([]float64, probeReps)
	for r := range reps {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		reps[r] = float64(time.Since(t0)) / float64(per)
	}
	cpu := rusageCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	calls := float64(per * probeReps)
	return probeOut{
		ns:     median(reps),
		allocs: float64(ms1.Mallocs-ms0.Mallocs) / calls,
		cpuNs:  float64(cpu) / calls,
	}
}

// smallMsg has the shape of a metadata request: a few words and a name.
type smallMsg struct {
	A, B, C uint64
	Name    string
}

func (m *smallMsg) MarshalXDR(e *xdr.Encoder) {
	e.Uint64(m.A)
	e.Uint64(m.B)
	e.Uint64(m.C)
	e.String(m.Name)
}

func (m *smallMsg) UnmarshalXDR(d *xdr.Decoder) (err error) {
	if m.A, err = d.Uint64(); err != nil {
		return err
	}
	if m.B, err = d.Uint64(); err != nil {
		return err
	}
	if m.C, err = d.Uint64(); err != nil {
		return err
	}
	m.Name, err = d.String()
	return err
}

// bulkMsg has the shape of a READ reply or a WRITE request.
type bulkMsg struct {
	Off  uint64
	Data payload.Payload
}

func (m *bulkMsg) MarshalXDR(e *xdr.Encoder) {
	e.Uint64(m.Off)
	m.Data.MarshalXDR(e)
}

func (m *bulkMsg) UnmarshalXDR(d *xdr.Decoder) (err error) {
	if m.Off, err = d.Uint64(); err != nil {
		return err
	}
	return m.Data.UnmarshalXDR(d)
}

// Echo procedures of the rpc probes.
const (
	procSmall = 1 // small in, small out
	procRead  = 2 // small in, 2 MB out
	procWrite = 3 // 2 MB in, small out
)

// noOwner satisfies xdr.Owner for a borrow-mode decode of a buffer the
// probe itself keeps alive.
type noOwner struct{}

func (noOwner) Retain()  {}
func (noOwner) Release() {}

// runProbes runs every probe and returns the values by metric name.
func runProbes(budget time.Duration) (map[string]float64, error) {
	out := make(map[string]float64)
	data := make([]byte, bulk)
	fillPattern(data, 42)
	var sink uint64

	// ---- xdr ----
	enc := xdr.NewEncoderBuf(make([]byte, 0, bulk+64))
	out["xdr.encode_opaque_2m_ns"] = probe(budget, func() {
		enc.Reset()
		enc.Opaque(data)
	}).ns
	wire := append([]byte(nil), enc.Bytes()...)
	out["xdr.decode_copy_2m_ns"] = probe(budget, func() {
		b, _ := xdr.NewDecoder(wire).Opaque()
		sink += uint64(len(b))
	}).ns
	out["xdr.decode_borrow_2m_ns"] = probe(budget, func() {
		d := xdr.NewDecoder(wire)
		d.EnableBorrow(noOwner{})
		ref, _ := d.OpaqueRef()
		sink += uint64(len(ref.Bytes))
	}).ns
	small := &smallMsg{A: 1, B: 2, C: 3, Name: "m0.d3/f12345"}
	out["xdr.encode_small_ns"] = probe(budget, func() {
		enc.Reset()
		small.MarshalXDR(enc)
	}).ns
	out["xdr.crc32c_64k_ns"] = probe(budget, func() {
		sink += uint64(xdr.ChecksumSalted(7, data[:chunk]))
	}).ns

	// ---- rpc over loopback TCP ----
	// The server and the client share this process, so process CPU per call
	// is what one call costs the whole system.
	tr := rpc.NewTCPTransport(0)
	defer tr.Close()
	reg := rpc.NewRegistry()
	reg.Register(procSmall, func() xdr.Unmarshaler { return &smallMsg{} })
	reg.Register(procRead, func() xdr.Unmarshaler { return &smallMsg{} })
	reg.Register(procWrite, func() xdr.Unmarshaler { return &bulkMsg{} })
	handler := func(_ *rpc.Ctx, proc uint32, req any) (xdr.Marshaler, rpc.Status) {
		switch proc {
		case procSmall:
			return req.(*smallMsg), rpc.StatusOK
		case procRead:
			return &bulkMsg{Data: payload.Real(data)}, rpc.StatusOK
		case procWrite:
			return &smallMsg{A: uint64(req.(*bulkMsg).Data.Len())}, rpc.StatusOK
		}
		return nil, rpc.StatusProcUnavail
	}
	if _, err := tr.Serve("srv", "echo", reg, handler, 8); err != nil {
		return nil, fmt.Errorf("rpc probe: %w", err)
	}
	conn, err := tr.Dial("cli", "srv", "echo")
	if err != nil {
		return nil, fmt.Errorf("rpc probe: %w", err)
	}
	ctx := &rpc.Ctx{}
	var callErr error
	call := func(proc uint32, args xdr.Marshaler, rep xdr.Unmarshaler) {
		if err := conn.Call(ctx, proc, args, rep); err != nil && callErr == nil {
			callErr = err
		}
	}
	// The TCP probes get four times the budget: a 2 MB round trip is
	// milliseconds, and getrusage ticks are coarse.
	p := probe(4*budget, func() { call(procSmall, small, &smallMsg{}) })
	out["rpc.tcp_rtt_small_us"], out["rpc.tcp_small_cpu_us"] = p.ns/1e3, p.cpuNs/1e3
	out["rpc.tcp_allocs_per_call"] = p.allocs
	p = probe(4*budget, func() {
		var rep bulkMsg
		call(procRead, small, &rep)
		sink += uint64(rep.Data.Len())
		rep.Data.Release()
	})
	out["rpc.tcp_read_2m_us"], out["rpc.tcp_read_2m_cpu_us"] = p.ns/1e3, p.cpuNs/1e3
	wr := &bulkMsg{Data: payload.Real(data)}
	p = probe(4*budget, func() { call(procWrite, wr, &smallMsg{}) })
	out["rpc.tcp_write_2m_us"], out["rpc.tcp_write_2m_cpu_us"] = p.ns/1e3, p.cpuNs/1e3
	if callErr != nil {
		return nil, fmt.Errorf("rpc probe: %w", callErr)
	}
	out["rpc.bufpool_getput_ns"] = probe(budget, func() { rpc.PutBuf(rpc.GetBuf(bulk + 64)) }).ns

	// ---- rpc on the simulated fabric: host cost of one call ----
	simCalls, simWall, err := simCallProbe(budget)
	if err != nil {
		return nil, err
	}
	out["rpc.sim_call_ns"] = float64(simWall) / float64(simCalls)

	// ---- ioengine: Prepare + Run of one 32 MB pass's requests ----
	mapper := stripe.NewRoundRobin(bulk, tcpBackends)
	eng := ioengine.New(ioengine.Config{Name: "probe", Issuer: "probe", MaxFlight: 32})
	noop := func(*rpc.Ctx, stripe.Extent) error { return nil }
	var reqs int
	p = probe(budget, func() {
		prepared := eng.Prepare(mapper.Map(0, 16*bulk))
		reqs = len(prepared)
		if err := eng.Run(ctx, prepared, noop); err != nil {
			panic(err) // a no-op DoFunc cannot fail
		}
	})
	out["ioengine.run_ns_per_req"] = p.ns / float64(reqs)
	out["ioengine.run_allocs_per_req"] = p.allocs / float64(reqs)
	out["stripe.map_32m_ns"] = probe(budget, func() { sink += uint64(len(mapper.Map(0, 16*bulk))) }).ns

	// ---- store ----
	if err := storeProbes(budget, data, out); err != nil {
		return nil, err
	}

	// ---- bare sim kernel ----
	ev, allocs, wall := kernelProbe(4 * budget)
	out["sim.kernel_events_per_s"] = float64(ev) / wall.Seconds()
	out["sim.kernel_allocs_per_event"] = allocs / float64(ev)
	_ = sink
	return out, nil
}

// simCallProbe makes small echo calls between two nodes of a simulated
// fabric for about budget of host time and returns calls made and host time
// taken.
func simCallProbe(budget time.Duration) (calls int, wall time.Duration, err error) {
	k := sim.NewKernel(1)
	f := simnet.NewFabric(k)
	f.AddNode(simnet.NodeConfig{Name: "cli"})
	f.AddNode(simnet.NodeConfig{Name: "srv"})
	tr := &rpc.FabricTransport{Fabric: f}
	if _, err := tr.Serve("srv", "echo", nil, func(_ *rpc.Ctx, _ uint32, req any) (xdr.Marshaler, rpc.Status) {
		return req.(*smallMsg), rpc.StatusOK
	}, 8); err != nil {
		return 0, 0, err
	}
	conn, err := tr.Dial("cli", "srv", "echo")
	if err != nil {
		return 0, 0, err
	}
	var callErr error
	t0 := time.Now()
	k.Go("caller", func(p *sim.Proc) {
		ctx := &rpc.Ctx{P: p}
		msg := &smallMsg{Name: "probe"}
		for calls == 0 || (callErr == nil && time.Since(t0) < budget) {
			callErr = conn.Call(ctx, procSmall, msg, &smallMsg{})
			calls++
		}
	})
	if err := k.Run(); err != nil {
		return 0, 0, err
	}
	return calls, time.Since(t0), callErr
}

// kernelProbe runs the bare kernel: pairs of processes ping-ponging on
// Chans, each sleeping between messages.  The round count is sized so the
// probe takes roughly budget of host time.
func kernelProbe(budget time.Duration) (events uint64, allocs float64, wall time.Duration) {
	const pairs = 8
	rounds := int(budget / (20 * time.Microsecond))
	k := sim.NewKernel(1)
	for i := 0; i < pairs; i++ {
		ping, pong := sim.NewChan("ping"), sim.NewChan("pong")
		k.Go("a", func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				ping.Send(nil) // a value that needs no boxing: the allocations counted are the kernel's
				pong.Recv(p)
				p.Sleep(time.Microsecond)
			}
		})
		k.Go("b", func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				ping.Recv(p)
				p.Sleep(time.Microsecond)
				pong.Send(nil)
			}
		})
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	if err := k.Run(); err != nil {
		panic(err) // the probe's own processes cannot deadlock
	}
	wall = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	return k.EventsFired(), float64(ms1.Mallocs - ms0.Mallocs), wall
}

// storeProbes times the three backends through store.Store.
func storeProbes(budget time.Duration, data []byte, out map[string]float64) error {
	var firstErr error
	check := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	newFile := func(s store.Store) store.FileID {
		at, err := s.Create(s.Root(), "probe")
		check(err)
		return at.ID
	}

	// mem: 2 MB reads and overwrites across a 32 MB file, as a storage
	// daemon sees a seq_* pass.
	m := mem.New()
	id := newFile(m)
	for off := int64(0); off < 16*bulk; off += bulk {
		_, err := m.WriteAt(id, off, data)
		check(err)
	}
	buf := make([]byte, bulk)
	var off int64
	next := func(step, span int64) int64 {
		off = (off + step) % span
		return off
	}
	out["store.mem_read_2m_ns"] = probe(budget, func() {
		_, err := m.ReadAt(id, next(bulk, 16*bulk), buf)
		check(err)
	}).ns
	out["store.mem_write_2m_ns"] = probe(budget, func() {
		_, err := m.WriteAt(id, next(bulk, 16*bulk), data)
		check(err)
	}).ns

	// wal and cached: a 64 KB write (with one Sync per 16 writes folded into
	// the mean, so the journal's volatile tail stays short), the Sync that
	// makes one 4 KB write durable, and the create+remove pair of a
	// small-file transaction.
	type journalled struct {
		name string
		s    store.Store
	}
	for _, j := range []journalled{
		{"wal", wal.New(wal.Config{Name: "probe-wal"})},
		{"cached", cached.New(wal.Config{Name: "probe-cached"})},
	} {
		s := j.s
		id := newFile(s)
		off = 0
		out["store."+j.name+"_write_64k_ns"] = probe(budget, func() {
			_, err := s.WriteAt(id, next(chunk, 4<<20), data[:chunk])
			check(err)
			if off%(16*chunk) == 0 {
				check(s.Sync(nil))
			}
		}).ns
		out["store."+j.name+"_sync_ns"] = probe(budget, func() {
			_, err := s.WriteAt(id, next(chunk, 4<<20), data[:4096])
			check(err)
			check(s.Sync(nil))
		}).ns
		if j.name == "wal" {
			n := 0
			out["store.wal_create_remove_ns"] = probe(budget, func() {
				n++
				name := fmt.Sprintf("f%d", n)
				_, err := s.Create(s.Root(), name)
				check(err)
				check(s.Remove(s.Root(), name))
				if n%16 == 0 {
					check(s.Sync(nil))
				}
			}).ns
		}
	}
	if firstErr != nil {
		return fmt.Errorf("store probe: %w", firstErr)
	}
	return nil
}
