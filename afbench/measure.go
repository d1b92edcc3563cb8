package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"

	"audiofile/aserver"
	"audiofile/internal/metrics"
)

// opClass is the kind of af call a span or latency sample belongs to.
type opClass uint8

const (
	clsGetTime opClass = iota
	clsPlay
	clsRecord
	clsControl
	numClasses
)

var classNames = [numClasses]string{"gettime", "play", "record", "control"}

// span is one traced af call: which connection made it, its class and
// payload size, and when it was due, started and returned, in
// nanoseconds since the window's epoch. The call is the root of its
// request, so it has no parent span.
type span struct {
	id         uint32
	conn       uint8
	class      opClass
	bytes      int32
	due, start int64
	end        int64
}

// sliceLen cuts every measured window into slices. Latency percentiles
// are computed per slice and the median slice is reported, so a burst of
// interference from outside the process moves a few slices, not the
// result. A slice still holds enough calls for its
// p99 (the realtime workload's 1,600 plays leave 16 beyond it).
const sliceLen = 500 * time.Millisecond

// slice is one slice's calls: latencies and play lateness.
type slice struct {
	lat, late []int64
}

// recorder collects one generator goroutine's observations; each
// generator owns one, so nothing here is shared.
type recorder struct {
	conn   uint8
	epoch  time.Time
	traced bool

	// slices holds the calls that returned inside the window, by the
	// slice they returned in; calls returning after it count only in the
	// totals below.
	slices  []slice
	capture []int64 // device-time end of a block → its record returned, ns (realtime)
	genLag  []int64 // how late the open-loop generator started a due batch, ns
	spans   []span

	ops, failed   uint64
	audioBytes    uint64 // sample payload played plus recorded
	gaps, blocks  uint64 // realtime loopback comparisons failed / made
	firstFailures []string
}

// recorderRate is the per-connection call rate recorders are sized for,
// so that appending samples does not allocate inside a measured window
// (runtime.alloc_bytes_per_op would count it); a faster run still works,
// its slices just grow.
const recorderRate = 100_000

func newRecorders(n int, epoch time.Time, traced bool, window time.Duration) []*recorder {
	per := int(sliceLen.Seconds() * recorderRate)
	recs := make([]*recorder, n)
	for i := range recs {
		r := &recorder{conn: uint8(i), epoch: epoch, traced: traced, slices: make([]slice, numSlices(window)),
			capture: make([]int64, 0, int(window.Seconds()*rtRate*rtDevices/rtBlock)),
			genLag:  make([]int64, 0, int(window/rtTick)+1)}
		for j := range r.slices {
			r.slices[j] = slice{lat: make([]int64, 0, per), late: make([]int64, 0, per)}
		}
		if traced {
			r.spans = make([]span, 0, int(window.Seconds()*recorderRate))
		}
		recs[i] = r
	}
	return recs
}

func numSlices(window time.Duration) int { return max(1, int(window/sliceLen)) }

// done accounts one completed af call. due is when the call should have
// been issued: for a closed loop that is its start. err is the call's
// error or a failed check of its reply.
func (r *recorder) done(cls opClass, bytes int, due, start time.Time, err error) {
	r.account(cls, bytes, due, start, err, true)
}

// doneBlocking accounts a call that blocks by design until the audio it
// asks for exists (realtime's parked records). It counts like any other
// call, but its latency stays out of the latency slices: its wait is set
// by the schedule, and its timing is kept as capture latency instead.
func (r *recorder) doneBlocking(cls opClass, bytes int, start time.Time, err error) {
	r.account(cls, bytes, start, start, err, false)
}

func (r *recorder) account(cls opClass, bytes int, due, start time.Time, err error, sampled bool) {
	end := time.Now()
	r.ops++
	if err != nil {
		r.fail(err)
		bytes = 0
	} else if cls != clsPlay && cls != clsRecord {
		bytes = 0
	}
	r.audioBytes += uint64(bytes)
	if i := int(end.Sub(r.epoch) / sliceLen); sampled && i >= 0 && i < len(r.slices) {
		sl := &r.slices[i]
		sl.lat = append(sl.lat, int64(end.Sub(start)))
		if cls == clsPlay {
			sl.late = append(sl.late, int64(end.Sub(due)))
		}
	}
	if r.traced {
		r.spans = append(r.spans, span{
			id: uint32(len(r.spans)), conn: r.conn, class: cls, bytes: int32(bytes),
			due: int64(due.Sub(r.epoch)), start: int64(start.Sub(r.epoch)), end: int64(end.Sub(r.epoch)),
		})
	}
}

func (r *recorder) fail(err error) {
	r.failed++
	if len(r.firstFailures) < 3 {
		r.firstFailures = append(r.firstFailures, fmt.Sprintf("conn %d: %v", r.conn, err))
	}
}

// merged concatenates one field across recorders.
func merged(recs []*recorder, f func(*recorder) []int64) []int64 {
	var out []int64
	for _, r := range recs {
		out = append(out, f(r)...)
	}
	return out
}

func sum(recs []*recorder, f func(*recorder) uint64) uint64 {
	var n uint64
	for _, r := range recs {
		n += f(r)
	}
	return n
}

// quantile returns the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return float64(xs[max(i, 0)])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// processCPU is the process's user+system CPU time (getrusage): the
// in-process server, router, firmware and clients together.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var runtimeMetricNames = []string{
	"/sched/latencies:seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

// state is everything read from outside the program at one instant; the
// per-layer metrics are deltas between two of them.
type state struct {
	at     time.Time
	cpu    time.Duration
	srvs   []aserver.Snapshot
	router *aserver.RouterSnapshot
	rt     []rtmetrics.Sample
}

func capture(b bench) state {
	s := state{cpu: processCPU()}
	for _, srv := range b.servers() {
		s.srvs = append(s.srvs, srv.Snapshot())
	}
	if r := b.router(); r != nil {
		rs := r.Snapshot()
		s.router = &rs
	}
	s.rt = make([]rtmetrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s.rt[i].Name = n
	}
	rtmetrics.Read(s.rt)
	s.at = time.Now()
	return s
}

// hd is a histogram delta: observations and their exact sum.
type hd struct{ count, sum uint64 }

func histDelta(a, b metrics.HistogramSnapshot) hd {
	return hd{b.Count - a.Count, b.Sum - a.Sum}
}

func (h hd) add(o hd) hd { return hd{h.count + o.count, h.sum + o.sum} }

func (h hd) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// schedLatencyP50 is the median goroutine scheduling latency between two
// runtime/metrics histogram reads, interpolated linearly inside the bucket
// that holds it.
func schedLatencyP50(a, b rtmetrics.Sample) float64 {
	ha, hb := a.Value.Float64Histogram(), b.Value.Float64Histogram()
	var total uint64
	d := make([]uint64, len(hb.Counts))
	for i := range hb.Counts {
		d[i] = hb.Counts[i] - ha.Counts[i]
		total += d[i]
	}
	half := float64(total) / 2
	var acc float64
	for i, c := range d {
		if c > 0 && acc+float64(c) >= half {
			lo, hi := hb.Buckets[i], hb.Buckets[i+1]
			if math.IsInf(lo, -1) || math.IsInf(hi, 1) {
				return max(lo, min(hi, 0))
			}
			return lo + (hi-lo)*(half-acc)/float64(c)
		}
		acc += float64(c)
	}
	return 0
}

// writeSpans writes the traced windows' spans as CSV, one round each.
func writeSpans(path string, ws []window) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "round,conn,id,class,bytes,due_ns,start_ns,end_ns")
	for round, win := range ws {
		for _, r := range win.recs {
			for _, s := range r.spans {
				fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d,%d\n", round, s.conn, s.id, classNames[s.class], s.bytes, s.due, s.start, s.end)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
