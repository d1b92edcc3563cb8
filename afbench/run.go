package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"audiofile/aserver"
)

const (
	// rounds: a run sets the workload up, drives it and tears it down
	// this many times, and the end-to-end metrics pool all rounds' slices,
	// so a run does not hang on how one set of connections and goroutines
	// happened to settle.
	rounds = 5
	// setupsPerRound: each round times this many set-ups and keeps the
	// last, so setup_s is a median over rounds × setupsPerRound.
	setupsPerRound = 4
	// warmup runs the load unmeasured first in each round, so pools,
	// caches and the runtime's heap target settle before the window.
	warmup = 300 * time.Millisecond
	// drainWait bounds how long a round waits for the server to report
	// itself drained after the clients close.
	drainWait = 3 * time.Second
)

// round is what one set-up → load → teardown cycle produced.
type round struct {
	untraced, traced window
	layers           *report // per-layer metrics of the traced window
	all              []*recorder
	checks           int
	checkFails       []string
	live             []string // live-law violations
	drained          int      // drained-mode law violations
}

// run executes the rounds and reduces them to one outcome.
func run(setup func(*runConfig) (bench, error), cfg runConfig) (*outcome, error) {
	baseGoroutines := runtime.NumGoroutine()
	d := time.Duration(cfg.seconds * float64(time.Second) / rounds)
	if cfg.traced {
		d /= 2
	}
	var rs []round
	var setups []float64
	var transport string
	for i := 0; i < rounds; i++ {
		var b bench
		for j := 0; j < setupsPerRound; j++ {
			if b != nil {
				b.close()
			}
			t0 := time.Now()
			var err error
			if b, err = setup(&cfg); err != nil {
				return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		rd, err := runRound(b, &cfg, d, baseGoroutines)
		if err != nil {
			return nil, err
		}
		transport = b.transport()
		rs = append(rs, rd)
	}

	out := &outcome{rep: newReport()}
	rep := out.rep
	var untraced, traced []window
	live, drained := 0, 0
	for _, rd := range rs {
		untraced = append(untraced, rd.untraced)
		traced = append(traced, rd.traced)
		out.problems = append(out.problems, rd.checkFails...)
		out.problems = append(out.problems, rd.live...)
		for _, r := range rd.all {
			out.problems = append(out.problems, r.firstFailures...)
		}
		live += len(rd.live)
		drained += rd.drained
		out.attempted += sum(rd.all, func(r *recorder) uint64 { return r.ops }) + uint64(rd.checks)
		out.failed += sum(rd.all, func(r *recorder) uint64 { return r.failed }) + uint64(len(rd.checkFails))
	}
	rep.set("setup_s", median(setups), "s")
	endToEnd(rep, untraced)

	if cfg.traced {
		tr := newReport()
		endToEnd(tr, traced)
		for _, name := range rs[0].layers.names {
			var vals []float64
			for _, rd := range rs {
				vals = append(vals, rd.layers.vals[name].Value)
			}
			rep.set(name, median(vals), rs[0].layers.vals[name].Unit)
		}
		if cfg.workload == "realtime" {
			// Open loop: the offered rate is fixed, so tracing shows up as CPU.
			rep.set("trace.overhead_pct", 100*(tr.vals["cpu_us_per_op"].Value/rep.vals["cpu_us_per_op"].Value-1), "%")
		} else {
			rep.set("trace.overhead_pct", 100*(1-tr.vals["ops_per_s"].Value/rep.vals["ops_per_s"].Value), "%")
		}
		last := rs[len(rs)-1].traced
		if err := probeLayers(rep, &cfg, transport, last.recs); err != nil {
			return nil, err
		}
		if err := writeTrace(&cfg, traced, rep); err != nil {
			return nil, err
		}
	}
	rep.set("aserver.live_law_violations", float64(live), "count")
	rep.set("aserver.drain_law_violations", float64(drained), "count")
	rep.set("fail_ratio", ratio(float64(out.failed), float64(out.attempted)), "ratio")
	return out, nil
}

// runRound drives one set-up bench through its windows and checks, then
// drains and closes it.
func runRound(b bench, cfg *runConfig, d time.Duration, baseGoroutines int) (round, error) {
	var rd round
	defer b.close()
	warm := measure(b, warmup, false)
	rd.untraced = measure(b, d, false)
	rd.all = append(rd.all, warm.recs...)
	rd.all = append(rd.all, rd.untraced.recs...)
	rd.live = lawsOf(rd.untraced.b)
	if cfg.traced {
		rd.traced = measure(b, d, true)
		rd.all = append(rd.all, rd.traced.recs...)
		rd.live = append(rd.live, lawsOf(rd.traced.b)...)
		rd.layers = newReport()
		perLayer(rd.layers, rd.traced)
		rd.layers.set("runtime.goroutine_delta", float64(rd.traced.goroutines-baseGoroutines), "count")
		if err := b.layers(rd.layers); err != nil {
			return rd, err
		}
	}
	rd.checks, rd.checkFails = b.check()

	drained := drainLaws(b)
	b.close()
	for _, srv := range b.servers() {
		// Lineserver backends are closed with the server; their laws are
		// exact from then on.
		for _, dev := range srv.Snapshot().Devices {
			if dev.Lineserver != nil {
				drained = append(drained, lineserverLaws(dev.Index, *dev.Lineserver, true)...)
			}
		}
	}
	for _, v := range drained {
		fmt.Println("drained-mode law not met (recorded, not failed):", v)
	}
	rd.drained = len(drained)
	return rd, nil
}

// lawsOf checks the live laws on every snapshot in a state.
func lawsOf(s state) []string {
	var v []string
	for _, snap := range s.srvs {
		v = append(v, liveServerLaws(snap)...)
	}
	if s.router != nil {
		v = append(v, routerLaws(*s.router, false)...)
	}
	return v
}

// drainLaws closes the clients, waits for the router and each server to
// report themselves drained, and checks the exact laws there.
func drainLaws(b bench) []string {
	b.closeClients()
	var v []string
	if r := b.router(); r != nil {
		snap := r.Snapshot()
		for end := time.Now().Add(drainWait); snap.SessionsActive != 0 && time.Now().Before(end); {
			time.Sleep(5 * time.Millisecond)
			snap = r.Snapshot()
		}
		v = append(v, routerLaws(snap, true)...)
		// Stop the router's health probes, which are backend clients too.
		r.Close()
	}
	for _, srv := range b.servers() {
		snap := srv.Snapshot()
		for end := time.Now().Add(drainWait); !drained(snap) && time.Now().Before(end); {
			time.Sleep(5 * time.Millisecond)
			snap = srv.Snapshot()
		}
		v = append(v, drainedServerLaws(snap)...)
	}
	return v
}

// window is one measured stretch of load: the recorders and the outside
// state on either side.
type window struct {
	recs       []*recorder
	a, b       state
	goroutines int // running at the end of the load
}

// measure drives the bench for d with fresh recorders.
func measure(bn bench, d time.Duration, traced bool) window {
	a := capture(bn)
	recs := newRecorders(bn.conns(), a.at, traced, d)
	bn.drive(d, recs)
	w := window{recs: recs, a: a, goroutines: runtime.NumGoroutine()}
	w.b = capture(bn)
	return w
}

// endToEnd computes the end-to-end metrics of a set of windows. Rates and
// CPU per call are totals over all of them; latency percentiles are the
// median of the slices' percentiles.
func endToEnd(rep *report, ws []window) {
	var secs float64
	var ops, bytes uint64
	var cpu time.Duration
	var recs []*recorder
	var p50, p99, late50, late99 []float64
	samples := 0
	for _, w := range ws {
		secs += w.b.at.Sub(w.a.at).Seconds()
		cpu += w.b.cpu - w.a.cpu
		recs = append(recs, w.recs...)
		ops += sum(w.recs, func(r *recorder) uint64 { return r.ops })
		bytes += sum(w.recs, func(r *recorder) uint64 { return r.audioBytes })
		for i := range w.recs[0].slices {
			var lat, late []int64
			for _, r := range w.recs {
				lat = append(lat, r.slices[i].lat...)
				late = append(late, r.slices[i].late...)
			}
			if len(lat) == 0 {
				continue
			}
			samples += len(lat)
			p50 = append(p50, quantile(lat, 0.50)/1e3)
			p99 = append(p99, quantile(lat, 0.99)/1e3)
			late50 = append(late50, quantile(late, 0.50)/1e3)
			late99 = append(late99, quantile(late, 0.99)/1e3)
		}
	}
	rep.set("ops_per_s", float64(ops)/secs, "op/s")
	rep.set("op_p50_us", median(p50), "us")
	rep.set("op_p99_us", median(p99), "us")
	rep.set("audio_MBps", float64(bytes)/secs/1e6, "MB/s")
	rep.set("cpu_us_per_op", ratio(float64(cpu.Nanoseconds())/1e3, float64(ops)), "us")
	rep.set("late_p50_us", median(late50), "us")
	rep.set("late_p99_us", median(late99), "us")
	if capt := merged(recs, func(r *recorder) []int64 { return r.capture }); len(capt) > 0 {
		rep.set("capture_p50_ms", quantile(capt, 0.50)/1e6, "ms")
		blocks := sum(recs, func(r *recorder) uint64 { return r.blocks })
		rep.set("gap_ratio", ratio(float64(sum(recs, func(r *recorder) uint64 { return r.gaps })), float64(blocks)), "ratio")
	}
	rep.set("samples", float64(samples), "count")
	rep.set("slices", float64(len(p50)), "count")
}

// perLayer computes the per-layer metrics every workload measures: af
// call spans by class, and deltas of the server, router and runtime
// counters over the traced window.
func perLayer(rep *report, w window) {
	recs, a, b := w.recs, w.a, w.b
	secs := b.at.Sub(a.at).Seconds()
	fops := float64(sum(recs, func(r *recorder) uint64 { return r.ops }))
	var byClass [numClasses][]int64
	for _, r := range recs {
		for _, s := range r.spans {
			byClass[s.class] = append(byClass[s.class], s.end-s.start)
		}
	}
	for c, name := range classNames {
		rep.set("af."+name+"_p50_us", quantile(byClass[c], 0.50)/1e3, "us")
	}

	var reqs, parks, preempted, buffered, underruns, played, silent, staged, busyNs, runs uint64
	var workers int
	var overdue int64
	var dispatch [numClasses]hd
	var lockWait, lockHold, batch, writev, depth, tickLag, parkNs hd
	var lsReq, lsAcc, lsTimeouts uint64
	for i := range b.srvs {
		sa, sb := a.srvs[i], b.srvs[i]
		reqs += sb.Requests - sa.Requests
		dispatch[clsGetTime] = dispatch[clsGetTime].add(histDelta(sa.DispatchGetTimeNs, sb.DispatchGetTimeNs))
		dispatch[clsPlay] = dispatch[clsPlay].add(histDelta(sa.DispatchPlayNs, sb.DispatchPlayNs))
		dispatch[clsRecord] = dispatch[clsRecord].add(histDelta(sa.DispatchRecordNs, sb.DispatchRecordNs))
		dispatch[clsControl] = dispatch[clsControl].add(histDelta(sa.DispatchControlNs, sb.DispatchControlNs))
		batch = batch.add(histDelta(sa.DispatchBatch, sb.DispatchBatch))
		writev = writev.add(histDelta(sa.WritevBatch, sb.WritevBatch))
		depth = depth.add(histDelta(sa.SendQueueDepth, sb.SendQueueDepth))
		tickLag = tickLag.add(histDelta(sa.SchedTickLagNs, sb.SchedTickLagNs))
		staged += sb.StagedBytes - sa.StagedBytes
		busyNs += sb.SchedWorkerBusyNs - sa.SchedWorkerBusyNs
		runs += sb.SchedEngineRuns - sa.SchedEngineRuns
		workers += sb.SchedWorkers
		overdue += sb.SchedOverdueTasks
		for j := range sb.Devices {
			da, db := sa.Devices[j], sb.Devices[j]
			lockWait = lockWait.add(histDelta(da.LockWaitNs, db.LockWaitNs))
			lockHold = lockHold.add(histDelta(da.LockHoldNs, db.LockHoldNs))
			parkNs = parkNs.add(histDelta(da.ParkNs, db.ParkNs))
			parks += db.ParksStarted - da.ParksStarted
			preempted += db.FramesPreempted - da.FramesPreempted
			buffered += db.FramesBuffered - da.FramesBuffered
			underruns += db.Underruns - da.Underruns
			played += db.HWPlayed - da.HWPlayed
			silent += db.HWSilent - da.HWSilent
			if la, lb := da.Lineserver, db.Lineserver; la != nil && lb != nil {
				lsReq += lb.Requests - la.Requests
				lsAcc += lb.Accepted - la.Accepted
				lsTimeouts += lb.Timeouts - la.Timeouts
			}
		}
	}
	rep.set("aserver.reqs_per_op", float64(reqs)/fops, "count")
	for c, name := range classNames {
		rep.set("aserver.dispatch_"+name+"_mean_ns", dispatch[c].mean(), "ns")
	}
	rep.set("aserver.lock_wait_mean_ns", lockWait.mean(), "ns")
	rep.set("aserver.lock_hold_mean_ns", lockHold.mean(), "ns")
	rep.set("aserver.dispatch_batch_mean", batch.mean(), "count")
	rep.set("aserver.writevs_per_op", float64(writev.count)/fops, "count")
	rep.set("aserver.writev_batch_mean", writev.mean(), "count")
	rep.set("aserver.send_queue_depth_mean", depth.mean(), "count")
	rep.set("aserver.staged_bytes_per_op", float64(staged)/fops, "B")

	rep.set("core.parks_per_op", float64(parks)/fops, "count")
	if parkNs.count > 0 {
		rep.set("core.park_mean_us", parkNs.mean()/1e3, "us")
	}
	rep.set("core.preempted_share", ratio(float64(preempted), float64(buffered)), "ratio")
	rep.set("core.underruns", float64(underruns), "count")

	rep.set("scheduler.tick_lag_mean_us", tickLag.mean()/1e3, "us")
	rep.set("scheduler.overdue_tasks", float64(overdue), "count")
	rep.set("scheduler.worker_busy_pct", 100*float64(busyNs)/(float64(workers)*secs*1e9), "%")
	rep.set("scheduler.engine_runs_per_s", float64(runs)/secs, "1/s")
	rep.set("vdev.silent_frame_ratio", ratio(float64(silent), float64(played+silent)), "ratio")

	rep.set("lineserver.reqs_per_s", float64(lsReq)/secs, "1/s")
	rep.set("lineserver.accepted_ratio", ratio(float64(lsAcc), float64(lsReq)), "ratio")
	rep.set("lineserver.timeouts", float64(lsTimeouts), "count")

	var proxied uint64
	if a.router != nil {
		proxied = b.router.ProxiedBytesC2B + b.router.ProxiedBytesB2C - a.router.ProxiedBytesC2B - a.router.ProxiedBytesB2C
	}
	rep.set("router.bytes_per_op", float64(proxied)/fops, "B")

	rep.set("runtime.sched_latency_p50_us", schedLatencyP50(a.rt[0], b.rt[0])*1e6, "us")
	rep.set("runtime.alloc_bytes_per_op", float64(b.rt[1].Value.Uint64()-a.rt[1].Value.Uint64())/fops, "B")
	rep.set("runtime.gc_cycles", float64(b.rt[2].Value.Uint64()-a.rt[2].Value.Uint64()), "count")

	if lag := merged(recs, func(r *recorder) []int64 { return r.genLag }); len(lag) > 0 {
		rep.set("gen.lag_p99_us", quantile(lag, 0.99)/1e3, "us")
	}
}

// writeTrace writes the traced window's spans, the counter snapshots that
// bracket it and the per-layer report next to the build products.
func writeTrace(cfg *runConfig, ws []window, rep *report) error {
	base := filepath.Join(cfg.outDir, "trace-"+cfg.workload)
	if err := writeSpans(base+"-spans.csv", ws); err != nil {
		return err
	}
	type snaps struct {
		Servers []aserver.Snapshot      `json:"servers"`
		Router  *aserver.RouterSnapshot `json:"router,omitempty"`
	}
	type bracket struct {
		Before snaps `json:"before"`
		After  snaps `json:"after"`
	}
	var rounds []bracket
	for _, w := range ws {
		rounds = append(rounds, bracket{snaps{w.a.srvs, w.a.router}, snaps{w.b.srvs, w.b.router}})
	}
	doc := struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Rounds   []bracket         `json:"rounds"`
		Metrics  map[string]metric `json:"metrics"`
	}{cfg.workload, cfg.seed, rounds, rep.vals}
	raw, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+"-snapshots.json", raw, 0o644)
}
