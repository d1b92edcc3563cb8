package aserver

import (
	"fmt"
	"sync"
	"time"

	"audiofile/internal/lineserver"
	"audiofile/internal/metrics"
	"audiofile/internal/proto"
)

// This file is the observability spine of the server: the typed metric
// sets the hot paths update, and the consistent snapshot the export
// endpoints read.
//
// Ownership rules (one owner per counter, so totals are trustworthy):
//
//   - Request totals and dispatch latency: the dispatch wrappers in
//     dispatch.go, on the dispatching goroutine.
//   - Engine lock wait/hold: the lockers themselves (hot dispatch and
//     the scheduler's worker task pass).
//   - Play ingress bytes/chunks: the PlaySamples branch of dispatchHot.
//   - Record egress bytes/chunks: finishRecordReply, the single seal
//     point every record reply passes through (first-try and retry).
//   - Park lifecycle: registration in dispatchHot, release in
//     engine.finishPark. parks started == completed + discarded.
//   - Connects/disconnects: the control plane counts the connect
//     (loop.go register), the client's writer the disconnect once its
//     queue is settled (client.go drainResidual), each exactly once per
//     client, so after every client is gone connects == disconnects.
//   - Queue overflows, client errors, queue depth, writev batches:
//     client.go's send/sendError/writer.
//   - Frame conservation counters and silence fill: internal/core and
//     internal/ring, mutated and snapshotted under the engine lock.
//
// Everything the hot paths touch is an atomic on a pre-registered
// struct — no maps, no allocation (the CI gate on BenchmarkDispatch*
// and BenchmarkMetrics* enforces this).

// serverMetrics is the server-wide metric set.
type serverMetrics struct {
	reg *metrics.Registry

	connects       *metrics.Counter
	disconnects    *metrics.Counter
	activeClients  *metrics.Gauge
	clientErrors   *metrics.Counter
	queueOverflows *metrics.Counter

	// Disconnect classification (overload.go). Every disconnect
	// increments exactly one of these, before disconnects itself, so
	// disconnects == evictions + sheds + drains + clientCloses once the
	// server is drained (<= in any live snapshot).
	evictions    *metrics.Counter
	sheds        *metrics.Counter
	drains       *metrics.Counter
	clientCloses *metrics.Counter

	// queuedBytes is marshaled output queued across all clients;
	// frameBytes is pooled request-frame bytes checked out by ingress.
	queuedBytes *metrics.Gauge
	frameBytes  *metrics.Gauge

	dispatchPlay    *metrics.Histogram // ns, one observation per request
	dispatchRecord  *metrics.Histogram
	dispatchGetTime *metrics.Histogram
	dispatchControl *metrics.Histogram

	// dispatchBatch observes the size of every dispatch batch: coalesced
	// same-engine runs observe their length once, everything else (control
	// ops, standalone hot ops, error replies) observes 1. Conservation:
	// its Sum equals the request total exactly once the server is idle,
	// and never exceeds it in a live snapshot (requests are counted before
	// the batch observation; Snapshot reads the histogram first).
	dispatchBatch *metrics.Histogram

	// Staged reply egress (client.go replyStage): small replies generated
	// while dispatching a run coalesce into one pooled message. bytes is
	// wire bytes that left via the stage; flushes is stage→queue handoffs
	// (each one message, one writev iovec, at most one writer wakeup).
	stagedBytes   *metrics.Counter
	stagedFlushes *metrics.Counter

	writevBatch    *metrics.Histogram // messages per vectored write
	sendQueueDepth *metrics.Histogram // outbound queue depth at enqueue

	// Update scheduler (scheduler.go). tick lag is how far past its slot
	// deadline a wheel fire ran; batch is due timers per shard pass;
	// overdue is engines queued awaiting a worker right now; busy is
	// workers mid-pass; busyNs accumulates worker pass time (utilization
	// = busyNs / (workers × wall time)); engineRuns counts worker passes.
	schedTickLag     *metrics.Histogram
	schedBatch       *metrics.Histogram
	schedOverdue     *metrics.Gauge
	schedWorkersBusy *metrics.Gauge
	schedBusyNs      *metrics.Counter
	schedEngineRuns  *metrics.Counter

	// schedSweepBatch is engines per shard-sweep handoff: when one wheel
	// tick fires several engines, the scheduler hands the worker the whole
	// batch (one channel send) instead of one send per engine.
	schedSweepBatch *metrics.Histogram
}

func newServerMetrics() *serverMetrics {
	reg := metrics.NewRegistry()
	return &serverMetrics{
		reg:              reg,
		connects:         reg.Counter("server.connects"),
		disconnects:      reg.Counter("server.disconnects"),
		activeClients:    reg.Gauge("server.active_clients"),
		clientErrors:     reg.Counter("server.client_errors"),
		queueOverflows:   reg.Counter("server.queue_overflows"),
		evictions:        reg.Counter("server.evictions"),
		sheds:            reg.Counter("server.sheds"),
		drains:           reg.Counter("server.drains"),
		clientCloses:     reg.Counter("server.client_closes"),
		queuedBytes:      reg.Gauge("wire.queued_bytes"),
		frameBytes:       reg.Gauge("ingress.frame_bytes"),
		dispatchPlay:     reg.Histogram("dispatch.play_ns"),
		dispatchRecord:   reg.Histogram("dispatch.record_ns"),
		dispatchGetTime:  reg.Histogram("dispatch.gettime_ns"),
		dispatchControl:  reg.Histogram("dispatch.control_ns"),
		dispatchBatch:    reg.Histogram("dispatch.batch_size"),
		stagedBytes:      reg.Counter("wire.staged_bytes"),
		stagedFlushes:    reg.Counter("wire.staged_flushes"),
		writevBatch:      reg.Histogram("wire.writev_batch"),
		sendQueueDepth:   reg.Histogram("wire.send_queue_depth"),
		schedTickLag:     reg.Histogram("sched.tick_lag_ns"),
		schedBatch:       reg.Histogram("sched.batch_size"),
		schedOverdue:     reg.Gauge("sched.overdue_tasks"),
		schedWorkersBusy: reg.Gauge("sched.workers_busy"),
		schedBusyNs:      reg.Counter("sched.worker_busy_ns"),
		schedEngineRuns:  reg.Counter("sched.engine_runs"),
		schedSweepBatch:  reg.Histogram("sched.sweep_batch"),
	}
}

// closeCounterFor maps a recorded close reason to its disconnect-
// classification counter.
func (sm *serverMetrics) closeCounterFor(reason uint32) *metrics.Counter {
	switch reason {
	case closeReasonEvict:
		return sm.evictions
	case closeReasonShed:
		return sm.sheds
	case closeReasonDrain:
		return sm.drains
	default:
		return sm.clientCloses
	}
}

// dispatchFor returns the latency histogram for a request opcode.
func (sm *serverMetrics) dispatchFor(op uint8) *metrics.Histogram {
	switch op {
	case proto.OpPlaySamples:
		return sm.dispatchPlay
	case proto.OpRecordSamples:
		return sm.dispatchRecord
	case proto.OpGetTime:
		return sm.dispatchGetTime
	default:
		return sm.dispatchControl
	}
}

// engineMetrics is the per-root-device metric set, owned by the engine.
// Atomic so engine goroutines, reader goroutines, and the seal points in
// client.go can all update without extending the engine lock's hold.
type engineMetrics struct {
	lockWait *metrics.Histogram // ns waiting to acquire e.mu (hot dispatch + worker task pass)
	lockHold *metrics.Histogram // ns holding e.mu

	playBytes *metrics.Counter   // sample payload bytes accepted off the wire
	recBytes  *metrics.Counter   // sample payload bytes sealed into record replies
	playChunk *metrics.Histogram // bytes per PlaySamples request
	recChunk  *metrics.Histogram // bytes per record reply

	// dispatchBatch is hot requests served per engine-lock acquisition on
	// this engine: coalesced runs observe their group size, standalone hot
	// dispatches observe 1. Mean ≈ 1 means the batcher finds no runs (or
	// is off); higher means pipelined small ops are being amortized.
	dispatchBatch *metrics.Histogram

	parksStarted   *metrics.Counter
	parksCompleted *metrics.Counter
	parksDiscarded *metrics.Counter
	parkedNow      *metrics.Gauge
	parkNs         *metrics.Histogram // park registration to release

	// Broadcast fan-out (broadcast.go). Conservation, in every snapshot:
	// bcastEncodes >= bcastChunks (one encode per chunk per live format),
	// and exactly chunks × formats while the format set is stable.
	bcastSubs    *metrics.Gauge   // current subscriptions on this engine
	bcastChunks  *metrics.Counter // mix time-slices cut by the pump
	bcastEncodes *metrics.Counter // chunk encodes (chunks × wire formats)
	bcastMsgs    *metrics.Counter // per-subscriber enqueues that succeeded
	bcastBytes   *metrics.Counter // wire bytes fanned out (msgs × message size)
	bcastDrops   *metrics.Counter // enqueues refused (dead or hard-capped client)
}

func (sm *serverMetrics) newEngineMetrics(rootIndex int) *engineMetrics {
	p := fmt.Sprintf("dev.%d.", rootIndex)
	reg := sm.reg
	return &engineMetrics{
		lockWait:       reg.Histogram(p + "lock_wait_ns"),
		lockHold:       reg.Histogram(p + "lock_hold_ns"),
		playBytes:      reg.Counter(p + "play_bytes"),
		recBytes:       reg.Counter(p + "rec_bytes"),
		playChunk:      reg.Histogram(p + "play_chunk_bytes"),
		recChunk:       reg.Histogram(p + "rec_chunk_bytes"),
		dispatchBatch:  reg.Histogram(p + "dispatch_batch"),
		parksStarted:   reg.Counter(p + "parks_started"),
		parksCompleted: reg.Counter(p + "parks_completed"),
		parksDiscarded: reg.Counter(p + "parks_discarded"),
		parkedNow:      reg.Gauge(p + "parked_now"),
		parkNs:         reg.Histogram(p + "park_ns"),
		bcastSubs:      reg.Gauge(p + "bcast_subs"),
		bcastChunks:    reg.Counter(p + "bcast_chunks"),
		bcastEncodes:   reg.Counter(p + "bcast_encodes"),
		bcastMsgs:      reg.Counter(p + "bcast_msgs"),
		bcastBytes:     reg.Counter(p + "bcast_bytes"),
		bcastDrops:     reg.Counter(p + "bcast_drops"),
	}
}

// Snapshot is the consistent, JSON-renderable state of the server's
// metrics: what `afd -stats` serves and `astat` renders. Atomics are
// read individually (never torn); the per-device frame counters are
// read under each engine's lock, so within one device the conservation
// laws hold exactly in every snapshot.
type Snapshot struct {
	Requests       uint64 `json:"requests"`
	Connects       uint64 `json:"connects"`
	Disconnects    uint64 `json:"disconnects"`
	ActiveClients  int64  `json:"active_clients"`
	ClientErrors   uint64 `json:"client_errors"`
	QueueOverflows uint64 `json:"queue_overflows"`

	// Disconnect classification: Disconnects <= Evictions + Sheds +
	// Drains + ClientCloses in every snapshot, with equality after drain.
	Evictions    uint64 `json:"evictions"`
	Sheds        uint64 `json:"sheds"`
	Drains       uint64 `json:"drains"`
	ClientCloses uint64 `json:"client_closes"`

	QueuedBytes        int64 `json:"queued_bytes"`
	FrameBytesInFlight int64 `json:"frame_bytes_in_flight"`

	DispatchPlayNs    metrics.HistogramSnapshot `json:"dispatch_play_ns"`
	DispatchRecordNs  metrics.HistogramSnapshot `json:"dispatch_record_ns"`
	DispatchGetTimeNs metrics.HistogramSnapshot `json:"dispatch_gettime_ns"`
	DispatchControlNs metrics.HistogramSnapshot `json:"dispatch_control_ns"`

	// DispatchBatch: requests per dispatch batch, server-wide.
	// Conservation: DispatchBatch.Sum <= Requests in every snapshot, with
	// equality once the server is idle (every request is counted in
	// exactly one batch observation).
	DispatchBatch metrics.HistogramSnapshot `json:"dispatch_batch"`

	StagedBytes   uint64 `json:"staged_bytes"`
	StagedFlushes uint64 `json:"staged_flushes"`

	WritevBatch    metrics.HistogramSnapshot `json:"writev_batch"`
	SendQueueDepth metrics.HistogramSnapshot `json:"send_queue_depth"`

	// Update scheduler: the wheel/pool replacing per-engine goroutines.
	SchedShards       int                       `json:"sched_shards"`
	SchedWorkers      int                       `json:"sched_workers"`
	SchedTickLagNs    metrics.HistogramSnapshot `json:"sched_tick_lag_ns"`
	SchedBatchSize    metrics.HistogramSnapshot `json:"sched_batch_size"`
	SchedOverdueTasks int64                     `json:"sched_overdue_tasks"`
	SchedWorkersBusy  int64                     `json:"sched_workers_busy"`
	SchedWorkerBusyNs uint64                    `json:"sched_worker_busy_ns"`
	SchedEngineRuns   uint64                    `json:"sched_engine_runs"`
	SchedSweepBatch   metrics.HistogramSnapshot `json:"sched_sweep_batch"`

	Devices []DeviceStats `json:"devices"`
}

// DeviceStats is one root device's counters (views account into their
// root). Frame counters obey, in every snapshot:
//
//	FramesAccepted == FramesBuffered + FramesDiscarded
//	FramesPreempted <= FramesBuffered
type DeviceStats struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	Rate  int    `json:"rate"`
	Now   uint32 `json:"now"` // device time as of the last refresh

	FramesAccepted  uint64 `json:"frames_accepted"`
	FramesBuffered  uint64 `json:"frames_buffered"`
	FramesDiscarded uint64 `json:"frames_discarded"`
	FramesPreempted uint64 `json:"frames_preempted"`
	FramesRecorded  uint64 `json:"frames_recorded"`

	PlaySilenceFilled uint64 `json:"play_silence_filled"`
	RecSilenceFilled  uint64 `json:"rec_silence_filled"`
	Underruns         uint64 `json:"underruns"`

	PlayBytes      uint64                    `json:"play_bytes"`
	RecBytes       uint64                    `json:"rec_bytes"`
	PlayChunkBytes metrics.HistogramSnapshot `json:"play_chunk_bytes"`
	RecChunkBytes  metrics.HistogramSnapshot `json:"rec_chunk_bytes"`

	// DispatchBatch: hot requests served per engine-lock acquisition.
	DispatchBatch metrics.HistogramSnapshot `json:"dispatch_batch"`

	ParksStarted   uint64                    `json:"parks_started"`
	ParksCompleted uint64                    `json:"parks_completed"`
	ParksDiscarded uint64                    `json:"parks_discarded"`
	ParkedNow      int64                     `json:"parked_now"`
	ParkNs         metrics.HistogramSnapshot `json:"park_ns"`

	// Broadcast fan-out: BcastEncodes >= BcastChunks in every snapshot
	// (one encode per chunk per live wire format).
	BcastSubs    int64  `json:"bcast_subs"`
	BcastChunks  uint64 `json:"bcast_chunks"`
	BcastEncodes uint64 `json:"bcast_encodes"`
	BcastMsgs    uint64 `json:"bcast_msgs"`
	BcastBytes   uint64 `json:"bcast_bytes"`
	BcastDrops   uint64 `json:"bcast_drops"`

	LockWaitNs metrics.HistogramSnapshot `json:"lock_wait_ns"`
	LockHoldNs metrics.HistogramSnapshot `json:"lock_hold_ns"`

	// Simulated-hardware truth (absent for lineserver backends): frames
	// the DAC consumed from host data, backfilled silence frames, and
	// ADC frames captured.
	HWPlayed   uint64 `json:"hw_played"`
	HWSilent   uint64 `json:"hw_silent"`
	HWRecorded uint64 `json:"hw_recorded"`

	// Lineserver is the UDP backend's transport-health snapshot (only
	// for devices whose backend is a LineServer box). Its conservation
	// laws — Replies >= Accepted+Stale+Duplicate, ResyncsStarted >=
	// ResyncsCompleted+ResyncsAbandoned, exact once the backend is
	// closed — are checked by astat like the frame laws above.
	Lineserver *lineserver.BackendStats `json:"lineserver,omitempty"`
}

// Snapshot assembles a consistent metrics snapshot. Engine locks are
// taken one at a time (never nested), so this is safe to call from any
// goroutine, including while the data plane is under load.
func (s *Server) Snapshot() Snapshot {
	sm := s.sm
	// Disconnects is read before the per-reason counters: each of those
	// is incremented before disconnects at the classification site, so
	// every snapshot satisfies Disconnects <= Evictions + Sheds + Drains
	// + ClientCloses.
	disconnects := sm.disconnects.Load()
	// The batch histogram is read before the request total: every dispatch
	// site adds to requestCount before observing the batch, so every
	// snapshot satisfies DispatchBatch.Sum <= Requests.
	dispatchBatch := sm.dispatchBatch.Snapshot()
	snap := Snapshot{
		Requests:           s.requestCount.Load(),
		Connects:           sm.connects.Load(),
		Disconnects:        disconnects,
		ActiveClients:      sm.activeClients.Load(),
		ClientErrors:       sm.clientErrors.Load(),
		QueueOverflows:     sm.queueOverflows.Load(),
		Evictions:          sm.evictions.Load(),
		Sheds:              sm.sheds.Load(),
		Drains:             sm.drains.Load(),
		ClientCloses:       sm.clientCloses.Load(),
		QueuedBytes:        sm.queuedBytes.Load(),
		FrameBytesInFlight: sm.frameBytes.Load(),
		DispatchPlayNs:     sm.dispatchPlay.Snapshot(),
		DispatchRecordNs:   sm.dispatchRecord.Snapshot(),
		DispatchGetTimeNs:  sm.dispatchGetTime.Snapshot(),
		DispatchControlNs:  sm.dispatchControl.Snapshot(),
		DispatchBatch:      dispatchBatch,
		StagedBytes:        sm.stagedBytes.Load(),
		StagedFlushes:      sm.stagedFlushes.Load(),
		WritevBatch:        sm.writevBatch.Snapshot(),
		SendQueueDepth:     sm.sendQueueDepth.Snapshot(),
		SchedShards:        s.sched.wheel.Shards(),
		SchedWorkers:       s.sched.workers,
		SchedTickLagNs:     sm.schedTickLag.Snapshot(),
		SchedBatchSize:     sm.schedBatch.Snapshot(),
		SchedOverdueTasks:  sm.schedOverdue.Load(),
		SchedWorkersBusy:   sm.schedWorkersBusy.Load(),
		SchedWorkerBusyNs:  sm.schedBusyNs.Load(),
		SchedEngineRuns:    sm.schedEngineRuns.Load(),
		SchedSweepBatch:    sm.schedSweepBatch.Snapshot(),
	}
	for _, e := range s.engines {
		d := e.root
		em := e.m
		ds := DeviceStats{
			Index:          d.Index,
			Name:           d.Cfg.Name,
			Rate:           d.Cfg.Rate,
			PlayBytes:      em.playBytes.Load(),
			RecBytes:       em.recBytes.Load(),
			PlayChunkBytes: em.playChunk.Snapshot(),
			RecChunkBytes:  em.recChunk.Snapshot(),
			DispatchBatch:  em.dispatchBatch.Snapshot(),
			ParksStarted:   em.parksStarted.Load(),
			ParksCompleted: em.parksCompleted.Load(),
			ParksDiscarded: em.parksDiscarded.Load(),
			ParkedNow:      em.parkedNow.Load(),
			ParkNs:         em.parkNs.Snapshot(),
			LockWaitNs:     em.lockWait.Snapshot(),
			LockHoldNs:     em.lockHold.Snapshot(),
			BcastSubs:      em.bcastSubs.Load(),
			BcastChunks:    em.bcastChunks.Load(),
			BcastEncodes:   em.bcastEncodes.Load(),
			BcastMsgs:      em.bcastMsgs.Load(),
			BcastBytes:     em.bcastBytes.Load(),
			BcastDrops:     em.bcastDrops.Load(),
		}
		// Backend health is all atomics — read outside the engine lock.
		if lsb, ok := d.Backend().(*lineserver.Backend); ok {
			st := lsb.Stats()
			ds.Lineserver = &st
		}
		e.mu.Lock()
		io := d.Stats()
		ds.Now = uint32(d.Now())
		ds.FramesAccepted = io.FramesAccepted
		ds.FramesBuffered = io.FramesBuffered
		ds.FramesDiscarded = io.FramesDiscarded
		ds.FramesPreempted = io.FramesPreempted
		ds.FramesRecorded = io.FramesRecorded
		ds.PlaySilenceFilled = d.PlaySilenceFilled()
		ds.RecSilenceFilled = d.RecSilenceFilled()
		ds.Underruns = d.Underruns
		if hw := s.hw[d]; hw != nil {
			ds.HWPlayed, ds.HWSilent, ds.HWRecorded = hw.Stats()
		}
		e.mu.Unlock()
		snap.Devices = append(snap.Devices, ds)
	}
	return snap
}

// MetricsRegistry exposes the server's metric registry (for the expvar
// endpoint and for embedding harnesses).
func (s *Server) MetricsRegistry() *metrics.Registry { return s.sm.reg }

// lockTimed/unlockTimed wrap an engine-lock acquire/release with the
// wait and hold histograms; every timed locker uses them so all call
// sites measure the same way. They take the mutex directly (no func
// values) to keep the hot path allocation-free.
func (em *engineMetrics) lockTimed(mu *sync.Mutex) time.Time {
	t0 := time.Now()
	mu.Lock()
	t1 := time.Now()
	em.lockWait.Observe(t1.Sub(t0).Nanoseconds())
	return t1
}

func (em *engineMetrics) unlockTimed(mu *sync.Mutex, acquired time.Time) {
	em.lockHold.Observe(time.Since(acquired).Nanoseconds())
	mu.Unlock()
}
