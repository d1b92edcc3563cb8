package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"audiofile/af"
	"audiofile/aserver"
	"audiofile/internal/lineserver"
	"audiofile/internal/vdev"
)

// realtimeBench is the realtime workload: open loop on real clocks. One
// afd hosts 63 loopback codecs and one lineserver device whose in-process
// firmware loops its output back over UDP. Two Unix-socket connections
// hold 32 preempting contexts each. Every 20 ms each context plays a
// seeded 160-frame block rtLead frames ahead, and blocking-records the
// block that is still sounding, which must come back byte-identical. That
// record parks until the server wakes it after the block's end, so the
// update plane sets the capture latency; a wake later than half a tick
// also delays, through the connection's FIFO order, the next tick's plays.
// Because those records wait for their block by design, their latency is
// the capture latency and stays out of op_p50_us, which on this workload
// is the plays' service time.
type realtimeBench struct {
	srv     *aserver.Server
	fw      *lineserver.Firmware
	ln      net.Listener
	clients [2]*rtConn
	pool    []byte
	epoch   time.Time // tick 0 is due here
	played  []int64   // [first, end) tick ranges earlier drives played
}

type rtConn struct {
	conn *af.Conn
	acs  []*rtAC
	buf  []byte
}

type rtAC struct {
	ac     *af.AC
	idx    int
	anchor af.ATime // the device time at epoch
}

const (
	rtDevices = 64
	rtTick    = 20 * time.Millisecond
	rtBlock   = 160 // frames (= bytes) per tick at 8 kHz µ-law
	// rtLead is how far ahead of the device's time a block is scheduled:
	// 210 ms, far more than the generator ever runs late, and a whole
	// number of blocks plus a half, so that blocks end between ticks.
	rtLead = 10*rtBlock + rtBlock/2
	// rtRecLag: at tick k the block of tick k-rtRecLag ends half a tick
	// later, so its record parks for about 10 ms.
	rtRecLag = 11
	rtRate   = 8000
)

func setupRealtime(cfg *runConfig) (bench, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	b := &realtimeBench{pool: seededPool(rng, 1<<16)}
	lb := vdev.NewLoopback(4*lineserver.FirmwareFrames, 1, 0, 0xFF)
	var err error
	if b.fw, err = lineserver.NewFirmware(lineserver.FirmwareConfig{Sink: lb, Source: lb}); err != nil {
		return nil, err
	}
	var devs []aserver.DeviceSpec
	for i := 0; i < rtDevices-1; i++ {
		devs = append(devs, aserver.DeviceSpec{Kind: "codec", Name: fmt.Sprintf("rt%02d", i), Loopback: true})
	}
	devs = append(devs, aserver.DeviceSpec{Kind: "lineserver", Name: "als0", Addr: b.fw.Addr()})
	if b.srv, err = aserver.New(aserver.Options{Devices: devs, Logf: quiet}); err != nil {
		b.close()
		return nil, err
	}
	if b.ln, err = b.srv.Listen("unix", cfg.listenAddr("unix")); err != nil {
		b.close()
		return nil, err
	}
	per := rtDevices / len(b.clients)
	for g := range b.clients {
		nc, err := dial(b.ln)
		if err != nil {
			b.close()
			return nil, err
		}
		conn, err := af.NewConn(nc)
		if err != nil {
			nc.Close()
			b.close()
			return nil, err
		}
		c := &rtConn{conn: conn, buf: make([]byte, rtBlock)}
		b.clients[g] = c
		for i := g * per; i < (g+1)*per; i++ {
			ac, err := conn.CreateAC(i, af.ACPreemption, af.ACAttributes{Preempt: true})
			if err != nil {
				b.close()
				return nil, err
			}
			c.acs = append(c.acs, &rtAC{ac: ac, idx: i})
		}
	}
	// Prime: a first record marks every context recording, so updates
	// capture; then anchor each device's time to the common epoch.
	b.epoch = time.Now().Add(50 * time.Millisecond)
	for _, c := range b.clients {
		for _, a := range c.acs {
			t, err := a.ac.GetTime()
			if err == nil {
				_, _, err = a.ac.RecordSamples(t.Add(-4), c.buf[:4], false)
			}
			if err != nil {
				b.close()
				return nil, err
			}
			a.anchor = t.Add(int(time.Until(b.epoch).Seconds() * rtRate))
		}
	}
	return b, nil
}

// blockTime is the device time block k is scheduled at on a context.
func (a *rtAC) blockTime(k int64) af.ATime {
	return a.anchor.Add(int(k)*rtBlock + rtLead)
}

// block is the seeded payload of block k on a context.
func (b *realtimeBench) block(a *rtAC, k int64) []byte {
	off := (a.idx*7919 + int(k)*rtBlock) % (len(b.pool) - rtBlock)
	return b.pool[off : off+rtBlock]
}

// wall is the wall-clock instant a context's device reaches time t.
func (b *realtimeBench) wall(a *rtAC, t af.ATime) time.Time {
	return b.epoch.Add(time.Duration(af.TimeSub(t, a.anchor)) * time.Second / rtRate)
}

func (b *realtimeBench) conns() int        { return len(b.clients) }
func (b *realtimeBench) transport() string { return "unix" }

// drive runs the ticks falling due within d. Ticks between drives are
// skipped, and a block is recorded back only if some drive played it.
func (b *realtimeBench) drive(d time.Duration, recs []*recorder) {
	k0 := max(0, int64(time.Since(b.epoch)/rtTick)+1)
	kEnd := k0 + int64(d/rtTick)
	b.played = append(b.played, k0, kEnd)
	var wg sync.WaitGroup
	for g, c := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.run(c, k0, kEnd, recs[g])
		}()
	}
	wg.Wait()
}

// wasPlayed reports whether a drive played tick k.
func (b *realtimeBench) wasPlayed(k int64) bool {
	for i := 0; i < len(b.played); i += 2 {
		if k >= b.played[i] && k < b.played[i+1] {
			return true
		}
	}
	return false
}

func (b *realtimeBench) run(c *rtConn, k0, kEnd int64, rec *recorder) {
	for k := k0; k < kEnd; k++ {
		due := b.epoch.Add(time.Duration(k) * rtTick)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		rec.genLag = append(rec.genLag, int64(time.Since(due)))
		for _, a := range c.acs {
			start := time.Now()
			_, err := a.ac.PlaySamples(a.blockTime(k), b.block(a, k))
			rec.done(clsPlay, rtBlock, due, start, err)
		}
		j := k - rtRecLag
		if !b.wasPlayed(j) {
			continue
		}
		for _, a := range c.acs {
			start := time.Now()
			at := a.blockTime(j)
			_, n, err := a.ac.RecordSamples(at, c.buf, true)
			rec.capture = append(rec.capture, int64(time.Since(b.wall(a, at.Add(rtBlock)))))
			rec.blocks++
			if err == nil && (n != rtBlock || !bytes.Equal(c.buf, b.block(a, j))) {
				rec.gaps++
				err = fmt.Errorf("device %d block %d: loopback recording differs from what was played", a.idx, j)
			}
			rec.doneBlocking(clsRecord, n, start, err)
		}
	}
}

// check reads every device's time once the load has stopped: each must
// be at its real-time position.
func (b *realtimeBench) check() (int, []string) {
	var fails []string
	n := 0
	for _, c := range b.clients {
		for _, a := range c.acs {
			n++
			start := time.Now()
			t, err := a.ac.GetTime()
			want := a.anchor.Add(int(start.Sub(b.epoch).Seconds() * rtRate))
			if err != nil || absInt(af.TimeSub(t, want)) > rtRate/10 {
				fails = append(fails, fmt.Sprintf("realtime check: device %d time %d, want about %d (err %v)", a.idx, t, want, err))
			}
		}
	}
	return n, fails
}

func absInt(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

func (b *realtimeBench) servers() []*aserver.Server { return []*aserver.Server{b.srv} }
func (b *realtimeBench) router() *aserver.Router    { return nil }
func (b *realtimeBench) layers(*report) error       { return nil }

func (b *realtimeBench) closeClients() {
	for _, c := range b.clients {
		if c != nil {
			c.conn.Close()
		}
	}
}

func (b *realtimeBench) close() {
	b.closeClients()
	if b.srv != nil {
		b.srv.Close()
	}
	if b.fw != nil {
		b.fw.Close()
	}
}
