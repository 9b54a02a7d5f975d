package orb

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
)

// loadSignals are the reactor's per-request instruments, installed by
// ExportStats and read on every dispatch via one atomic pointer load.
type loadSignals struct {
	// queueWait observes admission → dequeue per operation.
	queueWait *obs.HistogramVec
	// service observes dequeue → dispatch-done per operation.
	service *obs.HistogramVec
}

// queueWaitBuckets span 10µs (an uncontended handoff) to ~5s; queue
// waits sit well below the RPC latency floor when the pool is healthy,
// so the latency defaults would collapse the signal into one bucket.
var queueWaitBuckets = obs.ExponentialBuckets(10e-6, 2, 20)

// Stats are cumulative ORB-level counters (monitoring hook for
// production deployments; every counter is updated atomically).
type Stats struct {
	// RequestsSent counts client requests written (including oneways).
	RequestsSent uint64
	// RepliesReceived counts replies matched to pending requests.
	RepliesReceived uint64
	// RequestsServed counts server-side dispatches across all adapters.
	RequestsServed uint64
	// ConnectionsAccepted counts inbound connections across all adapters.
	ConnectionsAccepted uint64
	// ConnectionsDialed counts outbound connections established.
	ConnectionsDialed uint64
	// DialsCoalesced counts getConn calls that joined another caller's
	// in-flight dial instead of racing a duplicate connection (per-address
	// dial singleflight).
	DialsCoalesced uint64
	// Deprecated: always 0; kept until bench/ stops reading it.
	FlushesCoalesced uint64
	// ConnectionsPrewarmed counts connections established ahead of first
	// use by ORB.Prewarm.
	ConnectionsPrewarmed uint64
	// CancelsSent counts MsgCancelRequest messages written after a call
	// was abandoned (context cancelled or deadline expired).
	CancelsSent uint64
	// CancelsReceived counts MsgCancelRequest messages the server side
	// acted on (the in-flight dispatch's context was cancelled).
	CancelsReceived uint64
	// RequestsShed counts requests rejected by deadline-aware admission:
	// their propagated deadline had already expired before dispatch, so
	// the servant was never invoked.
	RequestsShed uint64
	// Deprecated: always 0; kept until bench/ stops reading it.
	ServerFlushesCoalesced uint64
	// FramesRead counts GIOP frames delivered by server-side reactor read
	// loops across all adapters.
	FramesRead uint64
	// FrameReads counts read syscalls those frames arrived in.
	FrameReads uint64
	// FramesPerRead is FramesRead/FrameReads — the reactor's batching
	// ratio (1.0 means no pipelining benefit; higher means multiple
	// frames drained per syscall).
	FramesPerRead float64
	// OversizeRejected counts inbound frames rejected by the request-body
	// cap (drained and answered with MARSHAL, connection kept).
	OversizeRejected uint64
	// DispatchQueueDepth is the number of admitted requests currently
	// waiting for a dispatch worker (a gauge, not a counter).
	DispatchQueueDepth int
	// RetriesAttempted counts replay rounds entered by the FT proxies'
	// recover-and-replay loop (Caller), including rounds consumed by
	// failed recoveries.
	RetriesAttempted uint64
	// RecoveriesSucceeded counts recover steps (re-resolve / failover)
	// that produced a replacement reference.
	RecoveriesSucceeded uint64
	// RecoveriesFailed counts recover steps that themselves failed.
	RecoveriesFailed uint64
	// InFlight is the number of server-side dispatches currently running
	// across all adapters (a gauge, not a counter).
	InFlight int64
	// AdmissionShed counts requests rejected by QoS admission control
	// across every class and reason (per-class/reason counts via
	// ORB.AdmissionShed).
	AdmissionShed uint64
	// DegradeMode is the adaptive-degradation mode name at snapshot time.
	DegradeMode string
}

// orbCounters is the internal atomic representation.
type orbCounters struct {
	requestsSent         atomic.Uint64
	repliesReceived      atomic.Uint64
	requestsServed       atomic.Uint64
	connectionsAccepted  atomic.Uint64
	connectionsDialed    atomic.Uint64
	dialsCoalesced       atomic.Uint64
	connectionsPrewarmed atomic.Uint64
	cancelsSent          atomic.Uint64
	cancelsReceived      atomic.Uint64
	requestsShed         atomic.Uint64
	framesRead           atomic.Uint64
	frameReads           atomic.Uint64
	oversizeRejected     atomic.Uint64
	retriesAttempted     atomic.Uint64
	recoveriesSucceeded  atomic.Uint64
	recoveriesFailed     atomic.Uint64
	inFlight             atomic.Int64
}

// Stats returns a snapshot of the ORB's counters.
func (o *ORB) Stats() Stats {
	o.mu.Lock()
	queueDepth := 0
	if o.pool != nil {
		queueDepth = o.pool.depth()
	}
	o.mu.Unlock()
	framesRead := o.counters.framesRead.Load()
	frameReads := o.counters.frameReads.Load()
	framesPerRead := 0.0
	if frameReads > 0 {
		framesPerRead = float64(framesRead) / float64(frameReads)
	}
	return Stats{
		RequestsSent:         o.counters.requestsSent.Load(),
		RepliesReceived:      o.counters.repliesReceived.Load(),
		RequestsServed:       o.counters.requestsServed.Load(),
		ConnectionsAccepted:  o.counters.connectionsAccepted.Load(),
		ConnectionsDialed:    o.counters.connectionsDialed.Load(),
		DialsCoalesced:       o.counters.dialsCoalesced.Load(),
		ConnectionsPrewarmed: o.counters.connectionsPrewarmed.Load(),
		CancelsSent:          o.counters.cancelsSent.Load(),
		CancelsReceived:      o.counters.cancelsReceived.Load(),
		RequestsShed:         o.counters.requestsShed.Load(),
		FramesRead:           framesRead,
		FrameReads:           frameReads,
		FramesPerRead:        framesPerRead,
		OversizeRejected:     o.counters.oversizeRejected.Load(),
		DispatchQueueDepth:   queueDepth,
		RetriesAttempted:     o.counters.retriesAttempted.Load(),
		RecoveriesSucceeded:  o.counters.recoveriesSucceeded.Load(),
		RecoveriesFailed:     o.counters.recoveriesFailed.Load(),
		InFlight:             o.counters.inFlight.Load(),
		AdmissionShed:        o.admissionShed.total(),
		DegradeMode:          o.DegradeMode().String(),
	}
}

// AdmissionShed returns the count of QoS admission rejections for one
// class and reason (see the Shed* reason constants).
func (o *ORB) AdmissionShed(class Priority, reason string) uint64 {
	return o.admissionShed.get(class, reason)
}

// ExportStats registers every Stats counter with reg as a scrape-time
// metric (orb_*_total counters plus the orb_inflight_requests gauge), so
// a daemon's -obs endpoint surfaces ORB health without sampling loops.
func (o *ORB) ExportStats(reg *obs.Registry) {
	counters := []struct {
		name, help string
		v          *atomic.Uint64
	}{
		{"orb_requests_sent_total", "Client requests written (including oneways).", &o.counters.requestsSent},
		{"orb_replies_received_total", "Replies matched to pending requests.", &o.counters.repliesReceived},
		{"orb_requests_served_total", "Server-side dispatches across all adapters.", &o.counters.requestsServed},
		{"orb_connections_accepted_total", "Inbound connections accepted.", &o.counters.connectionsAccepted},
		{"orb_connections_dialed_total", "Outbound connections established.", &o.counters.connectionsDialed},
		{"orb_dials_coalesced_total", "getConn calls that joined an in-flight dial.", &o.counters.dialsCoalesced},
		{"orb_connections_prewarmed_total", "Connections established ahead of first use by Prewarm.", &o.counters.connectionsPrewarmed},
		{"orb_cancels_sent_total", "Wire-level cancels written for abandoned calls.", &o.counters.cancelsSent},
		{"orb_cancels_received_total", "Wire-level cancels acted on by the server side.", &o.counters.cancelsReceived},
		{"orb_requests_shed_total", "Requests rejected by deadline-aware admission.", &o.counters.requestsShed},
		{"orb_frames_read_total", "GIOP frames delivered by reactor read loops.", &o.counters.framesRead},
		{"orb_frame_reads_total", "Read syscalls those frames arrived in.", &o.counters.frameReads},
		{"orb_oversize_rejected_total", "Inbound frames rejected by the request-body cap.", &o.counters.oversizeRejected},
		{"orb_retries_attempted_total", "Replay rounds entered by the recover-and-replay loop.", &o.counters.retriesAttempted},
		{"orb_recoveries_succeeded_total", "Recover steps that produced a replacement reference.", &o.counters.recoveriesSucceeded},
		{"orb_recoveries_failed_total", "Recover steps that themselves failed.", &o.counters.recoveriesFailed},
	}
	for _, c := range counters {
		v := c.v
		reg.NewCounterFunc(c.name, c.help, v.Load)
	}
	reg.NewGaugeFunc("orb_inflight_requests", "Server-side dispatches currently running.",
		func() float64 { return float64(o.counters.inFlight.Load()) })
	reg.NewGaugeFunc("orb_dispatch_queue_depth", "Admitted requests waiting for a dispatch worker.",
		func() float64 {
			o.mu.Lock()
			defer o.mu.Unlock()
			if o.pool == nil {
				return 0
			}
			return float64(o.pool.depth())
		})
	reg.NewGaugeFunc("orb_worker_pool_size", "Dispatch workers in the shared pool.",
		func() float64 {
			o.mu.Lock()
			defer o.mu.Unlock()
			if o.pool == nil {
				return 0
			}
			return float64(o.pool.size)
		})
	reg.NewGaugeFunc("orb_worker_pool_busy", "Dispatch workers currently executing a request.",
		func() float64 {
			o.mu.Lock()
			defer o.mu.Unlock()
			if o.pool == nil {
				return 0
			}
			return float64(o.pool.busy.Load())
		})
	reg.NewGaugeFunc("orb_dispatch_queue_capacity", "Dispatch queue slots.",
		func() float64 {
			o.mu.Lock()
			defer o.mu.Unlock()
			if o.pool == nil {
				return 0
			}
			return float64(o.pool.capacity)
		})
	reg.NewMultiGaugeFunc("orb_dispatch_queue_class_depth",
		"Admitted requests waiting for a worker, per priority class.",
		[]string{"class"}, func(emit func(labelValues []string, v float64)) {
			o.mu.Lock()
			pool := o.pool
			o.mu.Unlock()
			if pool == nil {
				return
			}
			for c := Priority(0); c < NumClasses; c++ {
				emit([]string{c.String()}, float64(pool.classDepth(c)))
			}
		})
	reg.NewMultiCounterFunc("orb_admission_shed_total",
		"Requests rejected by QoS admission control, per class and reason.",
		[]string{"class", "reason"}, func(emit func(labelValues []string, v uint64)) {
			for c := Priority(0); c < NumClasses; c++ {
				for r := 0; r < NumShedReasons; r++ {
					emit([]string{c.String(), shedReasonNames[r]}, o.admissionShed[c][r].Load())
				}
			}
		})
	reg.NewGaugeFunc("orb_degrade_mode",
		"Adaptive-degradation mode (0=normal, 1=degraded, 2=critical-only).",
		func() float64 { return float64(o.DegradeMode()) })
	reg.NewGaugeFunc("orb_qos_tenant_buckets", "Tenants tracked by the admission token-bucket table.",
		func() float64 {
			if o.tenants == nil {
				return 0
			}
			return float64(o.tenants.size())
		})
	reg.NewMultiGaugeFunc("orb_connection_inflight_requests",
		"Cancellable requests queued or dispatching, per inbound connection.",
		[]string{"peer"}, o.exportConnInflight)
	// Batch sizes are frame counts, not seconds, so the histogram gets
	// power-of-two count buckets instead of the latency defaults.
	hist := reg.NewHistogramVec("orb_read_batch_frames",
		"Frames delivered per reactor read-loop wakeup.",
		[]float64{1, 2, 4, 8, 16, 32, 64}).With()
	o.batchHist.Store(&hist)
	// The request lifecycle histograms: stamped at admission (the frame
	// batch timestamp), dequeue and dispatch-done by the reactor.
	o.signals.Store(&loadSignals{
		queueWait: reg.NewHistogramVec("orb_request_queue_wait_seconds",
			"Admission to dequeue wait per operation.", queueWaitBuckets, "op"),
		service: reg.NewHistogramVec("orb_request_service_seconds",
			"Dequeue to dispatch-done time per operation.", queueWaitBuckets, "op"),
	})
}

// AttachFlightRecorder wires the black-box recorder into the ORB's
// request paths: the reactor records every finished dispatch and the
// client records every outbound call. Attach once during setup.
func (o *ORB) AttachFlightRecorder(f *obs.FlightRecorder) { o.flight.Store(f) }

// HealthProbe is the ORB's component probe for obs.Health: it degrades
// after shutdown and while the dispatch queue is nearly saturated (≥90%
// of capacity) — the same condition that trips the queue-saturation
// anomaly.
func (o *ORB) HealthProbe() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.shutdown {
		return errors.New("orb shut down")
	}
	if o.pool != nil {
		if d, c := o.pool.depth(), o.pool.capacity; c > 0 && d >= c*9/10 {
			return fmt.Errorf("dispatch queue %d/%d", d, c)
		}
	}
	return nil
}
