package vdev

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"audiofile/internal/atime"
	"audiofile/internal/sampleconv"
)

// oracleReadRecord is the per-frame ReadRecord that the windowed ring
// read replaced: every frame is tested against [now - HWFrames, now) on
// its own and copied, or silence-filled, one at a time.
func oracleReadRecord(d *Device, t atime.ATime, buf []byte) int {
	n := len(buf) / d.frameBytes
	oldest := atime.Add(d.now, -d.hwRec.Frames())
	valid := 0
	for i := 0; i < n; i++ {
		ft := atime.Add(t, i)
		out := buf[i*d.frameBytes : (i+1)*d.frameBytes]
		if atime.Before(ft, oldest) || !atime.Before(ft, d.now) {
			for j := range out {
				out[j] = d.silence
			}
			continue
		}
		d.hwRec.ReadAt(ft, out)
		valid++
	}
	return valid
}

// oracleLoopback is a Loopback whose Fill is the per-frame original.
type oracleLoopback struct{ *Loopback }

func (o oracleLoopback) Fill(t atime.ATime, buf []byte) {
	l := o.Loopback
	l.mu.Lock()
	defer l.mu.Unlock()
	src := atime.Add(t, -l.delay)
	n := len(buf) / l.frameBytes
	for i := 0; i < n; i++ {
		ft := atime.Add(src, i)
		out := buf[i*l.frameBytes : (i+1)*l.frameBytes]
		if !l.wrSet || !atime.Before(ft, l.written) ||
			atime.Before(ft, atime.Add(l.written, -l.ring.Frames())) {
			for j := range out {
				out[j] = l.silence
			}
			continue
		}
		l.ring.ReadAt(ft, out)
	}
}

// loopbackRig is a loopback device on a manual clock.
type loopbackRig struct {
	clk *ManualClock
	lb  *Loopback
	dev *Device
}

func newLoopbackRig(enc sampleconv.Encoding, ch, rate, hw, delay int, start atime.ATime, oracle bool) *loopbackRig {
	fb := enc.BytesPerSamples(1) * ch
	clk := NewManualClock(rate)
	clk.Set(start)
	lb := NewLoopback(4*hw, fb, delay, enc.SilenceByte())
	var src RecordSource = lb
	if oracle {
		src = oracleLoopback{lb}
	}
	dev := New(Config{
		Name: "lb", Rate: rate, Enc: enc, Channels: ch,
		HWFrames: hw, Clock: clk, Sink: lb, Source: src,
	})
	return &loopbackRig{clk: clk, lb: lb, dev: dev}
}

// TestWindowedCopyMatchesOracle drives a windowed loopback device and a
// per-frame oracle device through the same seeded script of plays, clock
// steps (some longer than the hardware ring) and reads, and requires
// byte-identical record data and valid counts. Device time starts just
// short of 2^32 so every script crosses the wrap; windows straddle the
// ring ends, requests run up to several windows long and far outside
// them, and each loopback is also read directly, before and after its
// first play, with and without a cable delay.
func TestWindowedCopyMatchesOracle(t *testing.T) {
	encs := []struct {
		name string
		enc  sampleconv.Encoding
		ch   int
	}{
		{"mulaw", sampleconv.MU255, 1},
		{"lin16-stereo", sampleconv.LIN16, 2},
		{"alaw", sampleconv.ALAW, 1},
	}
	for _, e := range encs {
		for seed := int64(1); seed <= 24; seed++ {
			rng := rand.New(rand.NewSource(seed))
			hw := 32 << rng.Intn(3)
			delay := 0
			if seed%2 == 0 {
				delay = 1 + rng.Intn(hw)
			}
			start := atime.ATime(math.MaxUint32 - uint32(rng.Intn(6*hw)))
			win := newLoopbackRig(e.enc, e.ch, 8000, hw, delay, start, false)
			ref := newLoopbackRig(e.enc, e.ch, 8000, hw, delay, start, true)
			fb := win.dev.FrameBytes()

			// reqTime picks a request start around now: mostly within a few
			// windows, sometimes anywhere in the 2^32 circle.
			reqTime := func(span int) atime.ATime {
				if rng.Intn(8) == 0 {
					return atime.ATime(rng.Uint32())
				}
				return atime.Add(win.dev.Now(), rng.Intn(2*span)-3*span/2)
			}
			garbage := func(n int) ([]byte, []byte) {
				a := make([]byte, n*fb)
				rng.Read(a)
				return a, append([]byte(nil), a...)
			}
			checkFill := func(step int) {
				tt := reqTime(4 * hw)
				got, want := garbage(rng.Intn(10 * hw))
				win.lb.Fill(tt, got)
				oracleLoopback{win.lb}.Fill(tt, want)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s seed %d step %d: Loopback.Fill(%d, %d frames) differs from oracle",
						e.name, seed, step, tt, len(got)/fb)
				}
			}

			checkFill(-1) // nothing written yet
			for step := 0; step < 300; step++ {
				switch rng.Intn(4) {
				case 0:
					tt := atime.Add(win.dev.Now(), rng.Intn(2*hw)-hw/2)
					data := make([]byte, (1+rng.Intn(hw))*fb)
					rng.Read(data)
					if a, b := win.dev.WritePlay(tt, data), ref.dev.WritePlay(tt, data); a != b {
						t.Fatalf("%s seed %d step %d: WritePlay accepted %d vs %d", e.name, seed, step, a, b)
					}
				case 1:
					n := rng.Intn(2 * hw)
					if rng.Intn(6) == 0 {
						n = rng.Intn(10 * hw)
					}
					win.clk.Advance(n)
					ref.clk.Advance(n)
					win.dev.Sync()
					ref.dev.Sync()
				case 2:
					tt := reqTime(hw)
					got, want := garbage(rng.Intn(3 * hw))
					gn := win.dev.ReadRecord(tt, got)
					wn := oracleReadRecord(ref.dev, tt, want)
					if gn != wn || !bytes.Equal(got, want) {
						t.Fatalf("%s seed %d step %d: ReadRecord(%d, %d frames) = %d valid, oracle %d (bytes equal %v)",
							e.name, seed, step, tt, len(got)/fb, gn, wn, bytes.Equal(got, want))
					}
				case 3:
					checkFill(step)
				}
			}
			p1, s1, r1 := win.dev.Stats()
			p2, s2, r2 := ref.dev.Stats()
			if p1 != p2 || s1 != s2 || r1 != r2 {
				t.Fatalf("%s seed %d: stats %d/%d/%d vs oracle %d/%d/%d", e.name, seed, p1, s1, r1, p2, s2, r2)
			}
		}
	}
}

// BenchmarkDeviceSync is one step of the device data plane on a loopback
// device: the clock moves 512 frames, Sync carries them through the cable
// into the record ring, and ReadRecord copies them out. codec and hifi are
// the server's default loopback devices; oracle is the codec with the
// per-frame copies the windowed read replaced.
func BenchmarkDeviceSync(b *testing.B) {
	const step = 512
	cases := []struct {
		name   string
		rate   int
		enc    sampleconv.Encoding
		ch, hw int
		oracle bool
	}{
		{"codec", 8000, sampleconv.MU255, 1, 1024, false},
		{"hifi", 44100, sampleconv.LIN16, 2, 4096, false},
		{"oracle", 8000, sampleconv.MU255, 1, 1024, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			r := newLoopbackRig(c.enc, c.ch, c.rate, c.hw, 0, 0, c.oracle)
			read := (*Device).ReadRecord
			if c.oracle {
				read = oracleReadRecord
			}
			buf := make([]byte, step*r.dev.FrameBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.clk.Advance(step)
				r.dev.Sync()
				read(r.dev, atime.Add(r.dev.Now(), -step), buf)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*step), "ns/frame")
		})
	}
}
