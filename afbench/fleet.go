package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"time"

	"audiofile/af"
	"audiofile/aserver"
)

// fleetBench is the fleet workload: an aserver.Router in front of two
// afd backends over TCP. Connection A runs the rpc mix on backend 0;
// connection B plays and records 8–24 KiB blocks on backend 1. Route keys
// are picked with the router's directory so each backend holds one
// session.
type fleetBench struct {
	backends [2]*codecServer
	rt       *aserver.Router
	ln       net.Listener
	keys     [2]string
	seed     int64

	a *rpcConn
	b *bulkConn
}

// bulkConn is fleet's connection B: preempt plays of 8–24 KiB into the
// future and non-blocking records of 8–24 KiB from the primed pattern.
type bulkConn struct {
	conn *af.Conn
	ac   *af.AC
	cs   *codecServer
	rng  *rand.Rand
	pool []byte
	buf  []byte
}

func setupFleet(cfg *runConfig) (bench, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	f := &fleetBench{seed: rng.Int63()}
	var addrs []string
	for i := range f.backends {
		cs, err := newCodecServer(cfg, "tcp", rng, 0, patternFrames)
		if err != nil {
			f.close()
			return nil, err
		}
		f.backends[i] = cs
		addrs = append(addrs, cs.ln.Addr().String())
	}
	var err error
	if f.rt, err = aserver.NewRouter(aserver.RouterOptions{Backends: addrs}); err != nil {
		f.close()
		return nil, err
	}
	if f.ln, err = f.rt.Listen("tcp", cfg.listenAddr("tcp")); err != nil {
		f.close()
		return nil, err
	}
	// Seeded route keys, each the first candidate the directory places on
	// the backend it should reach.
	dir := f.rt.Directory()
	for i := range f.keys {
		for f.keys[i] == "" {
			if k := fmt.Sprintf("bench-%x", rng.Uint32()); dir.Lookup(k) == i {
				f.keys[i] = k
			}
		}
	}
	if err := f.connect(rng); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleetBench) connect(rng *rand.Rand) error {
	nc, err := dial(f.ln)
	if err != nil {
		return err
	}
	if f.a, err = newRPCConn(nc, f.keys[0], f.backends[0], rng.Int63(), true); err != nil {
		return err
	}
	if err := f.backends[0].prime(f.a.ac); err != nil {
		return err
	}
	if nc, err = dial(f.ln); err != nil {
		return err
	}
	conn, err := af.NewConnRoute(nc, false, f.keys[1])
	if err != nil {
		nc.Close()
		return err
	}
	f.b = &bulkConn{conn: conn, cs: f.backends[1], rng: rand.New(rand.NewSource(rng.Int63())), buf: make([]byte, 24<<10)}
	f.b.pool = seededPool(f.b.rng, 64<<10)
	if f.b.ac, err = conn.CreateAC(0, af.ACPreemption, af.ACAttributes{Preempt: true}); err != nil {
		return err
	}
	return f.backends[1].prime(f.b.ac)
}

func (c *bulkConn) step(rec *recorder) {
	start := time.Now()
	now := c.cs.now
	n := 8<<10 + c.rng.Intn(16<<10+1)
	if c.rng.Intn(2) == 0 {
		off := c.rng.Intn(len(c.pool) - n)
		t, err := c.ac.PlaySamples(now.Add(64+c.rng.Intn(4000)), c.pool[off:off+n])
		if err == nil && t != now {
			err = fmt.Errorf("PlaySamples returned time %d, clock frozen at %d", t, now)
		}
		rec.done(clsPlay, n, start, start, err)
		return
	}
	off := c.rng.Intn(len(c.cs.pat) - n)
	t, got, err := c.ac.RecordSamples(c.cs.patStart.Add(off), c.buf[:n], false)
	if err == nil && (got != n || t != now || !bytes.Equal(c.buf[:n], c.cs.pat[off:off+n])) {
		err = fmt.Errorf("record at pattern offset %d: %d of %d bytes, time %d", off, got, n, t)
	}
	rec.done(clsRecord, got, start, start, err)
}

func (f *fleetBench) conns() int        { return 2 }
func (f *fleetBench) transport() string { return "tcp" }

func (f *fleetBench) drive(d time.Duration, recs []*recorder) {
	closedLoop(d, recs, func(g int, rec *recorder) {
		if g == 0 {
			f.a.step(rec)
		} else {
			f.b.step(rec)
		}
	})
}

// scriptOps is the length of the fixed connection-A script run routed and
// direct.
const scriptOps = 3000

// script runs the fixed connection-A script on a fresh connection to
// backend 0, routed or direct. It returns the reply transcript and the
// recorder holding the calls' latencies.
func (f *fleetBench) script(routed bool) ([]byte, *recorder, error) {
	var nc net.Conn
	var err error
	if routed {
		nc, err = dial(f.ln)
	} else {
		nc, err = dial(f.backends[0].ln)
	}
	if err != nil {
		return nil, nil, err
	}
	route := ""
	if routed {
		route = f.keys[0]
	}
	c, err := newRPCConn(nc, route, f.backends[0], f.seed, true)
	if err != nil {
		return nil, nil, err
	}
	defer c.conn.Close()
	// Start from a known gain, so the first query echoes the same value
	// on both paths.
	if err := c.setGain(-1); err != nil {
		return nil, nil, err
	}
	c.transcript = new(bytes.Buffer)
	rec := newRecorders(1, time.Now(), false, 4*time.Second)[0]
	for i := 0; i < scriptOps; i++ {
		c.step(rec)
	}
	if rec.failed > 0 {
		return nil, nil, fmt.Errorf("script: %v", rec.firstFailures)
	}
	return c.transcript.Bytes(), rec, nil
}

// check runs the fixed script through the router and directly against
// the same backend; the reply transcripts must be identical.
func (f *fleetBench) check() (int, []string) {
	routed, _, err := f.script(true)
	if err != nil {
		return 1, []string{fmt.Sprintf("fleet routed script: %v", err)}
	}
	direct, _, err := f.script(false)
	if err != nil {
		return 1, []string{fmt.Sprintf("fleet direct script: %v", err)}
	}
	if !bytes.Equal(routed, direct) {
		return 1, []string{fmt.Sprintf("fleet: routed replies (%d bytes) differ from direct (%d bytes)", len(routed), len(direct))}
	}
	return 1, nil
}

// layers measures the router hop: the connection-A script routed, then
// direct against the same backend.
func (f *fleetBench) layers(rep *report) error {
	_, routed, err := f.script(true)
	if err != nil {
		return err
	}
	_, direct, err := f.script(false)
	if err != nil {
		return err
	}
	lat := func(r *recorder) []int64 {
		var out []int64
		for _, sl := range r.slices {
			out = append(out, sl.lat...)
		}
		return out
	}
	r, d := quantile(lat(routed), 0.5), quantile(lat(direct), 0.5)
	rep.set("router.hop_p50_us", (r-d)/1e3, "us")
	rep.set("router.routed_over_direct", r/d, "ratio")
	return nil
}

func (f *fleetBench) servers() []*aserver.Server {
	return []*aserver.Server{f.backends[0].srv, f.backends[1].srv}
}
func (f *fleetBench) router() *aserver.Router { return f.rt }

func (f *fleetBench) closeClients() {
	if f.a != nil {
		f.a.conn.Close()
	}
	if f.b != nil {
		f.b.conn.Close()
	}
}

func (f *fleetBench) close() {
	f.closeClients()
	if f.rt != nil {
		f.rt.Close()
	}
	for _, cs := range f.backends {
		if cs != nil {
			cs.srv.Close()
		}
	}
}
