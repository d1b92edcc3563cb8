package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"audiofile/af"
	"audiofile/afutil"
	"audiofile/aserver"
	"audiofile/internal/vdev"
)

// streamBench is the stream workload: connection A plays seeded 8–24 KiB
// blocks in mix mode from two contexts on a µ-law codec and one on a
// lin16 stereo hifi device at −6 dB; connection B records seeded 8–32 KiB
// spans from the primed record buffers. Both run over TCP, closed loop,
// on frozen manual clocks.
type streamBench struct {
	cs     *codecServer // the codec, 8 s buffers so 32 KiB records fit
	hifiCk *vdev.ManualClock

	a, b    *af.Conn
	mix     [3]*af.AC // on A: codec, codec, hifi at −6 dB
	preempt *af.AC    // on A: the untimed check's preempting context
	recs    [2]*af.AC // on B: codec, hifi
	hifiNow af.ATime
	rngA    *rand.Rand
	rngB    *rand.Rand
	pool    []byte
	recBuf  []byte
}

const (
	streamBufSeconds = 8
	streamPattern    = 60000 // codec frames of seeded pattern: 7.5 s
	hifiDev          = 1     // the stereo hifi device (2 and 3 are its mono views)
	hifiFrameBytes   = 4
)

func setupStream(cfg *runConfig) (bench, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	hifiCk := vdev.NewManualClock(44100)
	cs, err := newCodecServer(cfg, "tcp", rng, streamBufSeconds, streamPattern,
		aserver.DeviceSpec{Kind: "hifi", Name: "hifi0", Clock: hifiCk, Loopback: true})
	if err != nil {
		return nil, err
	}
	b := &streamBench{cs: cs, hifiCk: hifiCk,
		rngA: rand.New(rand.NewSource(rng.Int63())), rngB: rand.New(rand.NewSource(rng.Int63())),
		pool: seededPool(rng, 64<<10), recBuf: make([]byte, 32<<10)}
	if err := b.connect(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *streamBench) connect() error {
	var err error
	for _, c := range []**af.Conn{&b.a, &b.b} {
		nc, err := dial(b.cs.ln)
		if err != nil {
			return err
		}
		if *c, err = af.NewConn(nc); err != nil {
			nc.Close()
			return err
		}
	}
	create := []struct {
		conn *af.Conn
		dst  **af.AC
		dev  int
		mask uint32
		attr af.ACAttributes
	}{
		{b.a, &b.mix[0], 0, 0, af.ACAttributes{}},
		{b.a, &b.mix[1], 0, 0, af.ACAttributes{}},
		{b.a, &b.mix[2], hifiDev, af.ACPlayGain, af.ACAttributes{PlayGain: -6}},
		{b.a, &b.preempt, 0, af.ACPreemption, af.ACAttributes{Preempt: true}},
		{b.b, &b.recs[0], 0, 0, af.ACAttributes{}},
		{b.b, &b.recs[1], hifiDev, 0, af.ACAttributes{}},
	}
	for _, c := range create {
		if *c.dst, err = c.conn.CreateAC(c.dev, c.mask, c.attr); err != nil {
			return err
		}
	}
	// Mark the hifi context recording, then prime both devices: the
	// codec's walk also moves the hifi clock in step.
	t, err := b.recs[1].GetTime()
	if err != nil {
		return err
	}
	if _, _, err := b.recs[1].RecordSamples(t.Add(-4), make([]byte, 16), false); err != nil {
		return err
	}
	// A jump past the whole 4 s buffer; the next update captures it.
	b.hifiCk.Advance(4*44100 + 2048)
	if err := b.cs.prime(b.preempt); err != nil {
		return err
	}
	b.hifiNow, err = b.recs[1].GetTime()
	return err
}

func (b *streamBench) conns() int        { return 2 }
func (b *streamBench) transport() string { return "tcp" }

func (b *streamBench) drive(d time.Duration, recs []*recorder) {
	closedLoop(d, recs, func(g int, rec *recorder) {
		if g == 0 {
			b.stepPlay(rec)
		} else {
			b.stepRecord(rec)
		}
	})
}

// stepPlay mixes one seeded 8–24 KiB block into the future of the codec
// or the hifi device.
func (b *streamBench) stepPlay(rec *recorder) {
	rng := b.rngA
	start := time.Now()
	i := rng.Intn(3)
	ac, now, fb := b.mix[i], b.cs.now, 1
	if i == 2 {
		now, fb = b.hifiNow, hifiFrameBytes
	}
	n := (8<<10 + rng.Intn(16<<10+1)) / fb * fb
	off := rng.Intn(len(b.pool) - n)
	// Codec plays end inside the 8 s play buffer less its hardware
	// window; the hifi buffer holds 4 s.
	at := now.Add(64 + rng.Intn(8000))
	t, err := ac.PlaySamples(at, b.pool[off:off+n])
	if err == nil && t != now {
		err = fmt.Errorf("PlaySamples returned time %d, clock frozen at %d", t, now)
	}
	rec.done(clsPlay, n, start, start, err)
}

// stepRecord reads one seeded 8–32 KiB span back from the codec's primed
// pattern (checked byte for byte) or from the hifi record buffer.
func (b *streamBench) stepRecord(rec *recorder) {
	rng := b.rngB
	start := time.Now()
	hifi := rng.Intn(2) == 1
	if hifi {
		n := (8<<10 + rng.Intn(24<<10+1)) / hifiFrameBytes * hifiFrameBytes
		at := b.hifiNow.Add(-n/hifiFrameBytes - rng.Intn(44100))
		t, got, err := b.recs[1].RecordSamples(at, b.recBuf[:n], false)
		if err == nil && (got != n || t != b.hifiNow) {
			err = fmt.Errorf("hifi record: %d of %d bytes, time %d", got, n, t)
		}
		rec.done(clsRecord, got, start, start, err)
		return
	}
	n := 8<<10 + rng.Intn(24<<10+1)
	off := rng.Intn(len(b.cs.pat) - n)
	t, got, err := b.recs[0].RecordSamples(b.cs.patStart.Add(off), b.recBuf[:n], false)
	if err == nil && (got != n || t != b.cs.now || !bytes.Equal(b.recBuf[:n], b.cs.pat[off:off+n])) {
		err = fmt.Errorf("codec record at pattern offset %d: %d of %d bytes, time %d", off, got, n, t)
	}
	rec.done(clsRecord, got, start, start, err)
}

// check is the untimed pass: preempt-play a seeded block and mix a
// second context's block over a third, walk the clock past both, and
// record them back. The first must return byte-identical, the second
// equal to afutil's mixing table applied sample by sample.
func (b *streamBench) check() (int, []string) {
	var fails []string
	n := 4000
	x := b.pool[:n]
	y := b.pool[n : 2*n]
	z := b.pool[2*n : 3*n]
	t1 := b.cs.now.Add(64)
	t2 := t1.Add(n + 64)
	steps := []func() error{
		func() error { _, err := b.preempt.PlaySamples(t1, x); return err },
		func() error { _, err := b.preempt.PlaySamples(t2, y); return err },
		func() error { _, err := b.mix[0].PlaySamples(t2, z); return err },
	}
	for _, s := range steps {
		if err := s(); err != nil {
			return 1, []string{fmt.Sprintf("stream check play: %v", err)}
		}
	}
	for moved := 0; moved < 2*n+128+1024; moved += 512 {
		b.cs.clk.Advance(512)
		b.cs.srv.Sync()
	}
	want := make([]byte, n)
	for i := range want {
		want[i] = afutil.MixU(y[i], z[i])
	}
	got := make([]byte, n)
	for _, c := range []struct {
		name string
		at   af.ATime
		want []byte
	}{{"preempted block", t1, x}, {"two-context mix", t2, want}} {
		_, k, err := b.recs[0].RecordSamples(c.at, got, false)
		if err != nil || k != n || !bytes.Equal(got, c.want) {
			fails = append(fails, fmt.Sprintf("stream check: %s recorded back differs (%d bytes, err %v)", c.name, k, err))
		}
	}
	return 2, fails
}

func (b *streamBench) servers() []*aserver.Server { return []*aserver.Server{b.cs.srv} }
func (b *streamBench) router() *aserver.Router    { return nil }
func (b *streamBench) layers(*report) error       { return nil }
func (b *streamBench) closeClients()              { closeAll(b.a, b.b) }
func (b *streamBench) close() {
	b.closeClients()
	b.cs.srv.Close()
}
