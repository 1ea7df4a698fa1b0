package rpc

import (
	"time"

	"dpnfs/internal/metrics"
	"dpnfs/internal/xdr"
)

// connStats bundles the client-side instruments for one (transport, service)
// pair.  Instruments are resolved once at Dial time; the per-call path is
// pure atomics.  A nil *connStats records nothing, so transports built
// without a registry (unit tests, direct DialTCP users) pay no cost.
type connStats struct {
	calls   *metrics.Counter
	errors  *metrics.Counter
	latency *metrics.Histogram

	bytesSent *metrics.Counter
	bytesRecv *metrics.Counter

	inflight *metrics.Gauge // pool occupancy: calls currently outstanding

	connects *metrics.Counter // TCP: sockets dialed (first dial + reconnects)
	retries  *metrics.Counter // TCP: calls retried on a fresh connection

	faults *metrics.Counter // calls rejected by injected node-down faults
}

// newConnStats resolves the client-side instrument bundle.  reg may be nil.
func newConnStats(reg *metrics.Registry, transport, service string) *connStats {
	if reg == nil {
		return nil
	}
	return &connStats{
		calls: reg.CounterVec("rpc_client_calls_total",
			"RPC calls issued, by transport and remote service.",
			"transport", "service").With(transport, service),
		errors: reg.CounterVec("rpc_client_errors_total",
			"RPC calls that returned an error (transport or RPC status).",
			"transport", "service").With(transport, service),
		latency: reg.HistogramVec("rpc_client_call_seconds",
			"RPC round-trip latency (virtual time on the simulated fabric, wall clock over TCP).",
			metrics.DurationBuckets, "transport", "service").With(transport, service),
		bytesSent: reg.CounterVec("rpc_client_bytes_sent_total",
			"Request bytes put on the wire, including the frame header.",
			"transport", "service").With(transport, service),
		bytesRecv: reg.CounterVec("rpc_client_bytes_received_total",
			"Reply bytes taken off the wire, including the frame header.",
			"transport", "service").With(transport, service),
		inflight: reg.GaugeVec("rpc_client_inflight",
			"Calls currently outstanding (connection-pool occupancy).",
			"transport", "service").With(transport, service),
		connects: reg.CounterVec("rpc_client_connects_total",
			"TCP sockets dialed; anything beyond the pool size is a reconnect.",
			"transport", "service").With(transport, service),
		retries: reg.CounterVec("rpc_client_retries_total",
			"Calls retried on a fresh connection after a pre-wire send failure.",
			"transport", "service").With(transport, service),
		faults: reg.CounterVec("rpc_client_fault_errors_total",
			"Calls that failed because fault injection marked the target node down.",
			"transport", "service").With(transport, service),
	}
}

// callStart opens one call's accounting window; callEnd closes it.
func (s *connStats) callStart() {
	if s != nil {
		s.calls.Inc()
		s.inflight.Inc()
	}
}

// callEnd records a finished call's latency and, when err is set, its
// failure.
func (s *connStats) callEnd(elapsed time.Duration, err error) {
	if s == nil {
		return
	}
	s.inflight.Dec()
	s.latency.ObserveDuration(elapsed)
	if err != nil {
		s.errors.Inc()
	}
}

func (s *connStats) addSent(n int64) {
	if s != nil && n > 0 {
		s.bytesSent.Add(uint64(n))
	}
}

func (s *connStats) addRecv(n int64) {
	if s != nil && n > 0 {
		s.bytesRecv.Add(uint64(n))
	}
}

func (s *connStats) connect() {
	if s != nil {
		s.connects.Inc()
	}
}

func (s *connStats) retry() {
	if s != nil {
		s.retries.Inc()
	}
}

func (s *connStats) fault() {
	if s != nil {
		s.faults.Inc()
	}
}

// instrumentHandler wraps a server-side Handler with request counting, a
// busy-handler gauge, and a service-time histogram (virtual time under the
// kernel, wall clock otherwise).  reg may be nil, in which case h is
// returned untouched.
func instrumentHandler(reg *metrics.Registry, transport, service string, h Handler) Handler {
	if reg == nil {
		return h
	}
	requests := reg.CounterVec("rpc_server_requests_total",
		"Requests dispatched to the service handler.",
		"transport", "service").With(transport, service)
	busy := reg.GaugeVec("rpc_server_busy_handlers",
		"Handlers currently executing (server-thread occupancy).",
		"transport", "service").With(transport, service)
	seconds := reg.HistogramVec("rpc_server_handle_seconds",
		"Handler service time, excluding transport queueing.",
		metrics.DurationBuckets, "transport", "service").With(transport, service)
	return func(ctx *Ctx, proc uint32, req any) (xdr.Marshaler, Status) {
		requests.Inc()
		busy.Inc()
		start := ctx.Stamp()
		defer func() {
			busy.Dec()
			seconds.ObserveDuration(ctx.Since(start))
		}()
		return h(ctx, proc, req)
	}
}
