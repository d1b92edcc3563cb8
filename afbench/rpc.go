package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"time"

	"audiofile/af"
	"audiofile/aserver"
)

// rpcConn is one connection running the rpc mix against a primed codec:
// mostly GetTime, plus 160-byte preempt plays, 160-byte non-blocking
// records from the primed buffer, and control ops that round-trip the
// server's control loop. Every reply is checked.
type rpcConn struct {
	conn *af.Conn
	ac   *af.AC // preempting context: plays and records
	ctl  *af.AC // context whose attributes the control ops change
	cs   *codecServer
	rng  *rand.Rand
	pool []byte
	rec  []byte

	// outputGain selects which device gain this connection's gain ops
	// set and query: two connections sharing a device each own one, so
	// every query echoes the connection's own last set.
	outputGain bool
	gain       int
	gainSet    bool

	// transcript, when non-nil, receives every reply value (fleet's
	// routed-versus-direct check).
	transcript *bytes.Buffer
}

const rpcBlock = 160

// newRPCConn opens an rpc connection over nc (route is the fleet routing
// key, "" for a direct connection) in synchronous mode, so the control
// ops that have no reply of their own still make one round trip.
func newRPCConn(nc net.Conn, route string, cs *codecServer, seed int64, outputGain bool) (*rpcConn, error) {
	conn, err := af.NewConnRoute(nc, false, route)
	if err != nil {
		nc.Close()
		return nil, err
	}
	conn.Synchronize(true)
	ac, err := conn.CreateAC(0, af.ACPreemption, af.ACAttributes{Preempt: true})
	if err != nil {
		conn.Close()
		return nil, err
	}
	ctl, err := conn.CreateAC(0, 0, af.ACAttributes{})
	if err != nil {
		conn.Close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	return &rpcConn{
		conn: conn, ac: ac, ctl: ctl, cs: cs, rng: rng,
		pool: seededPool(rng, 1<<14), rec: make([]byte, rpcBlock),
		outputGain: outputGain,
	}, nil
}

func (c *rpcConn) note(vals ...uint32) {
	if c.transcript == nil {
		return
	}
	for _, v := range vals {
		binary.Write(c.transcript, binary.LittleEndian, v) //nolint:errcheck // bytes.Buffer
	}
}

// step runs one seeded op and checks its reply against the frozen clock
// and the primed pattern.
func (c *rpcConn) step(rec *recorder) {
	start := time.Now()
	now := c.cs.now
	switch p := c.rng.Intn(100); {
	case p < 70:
		t, err := c.ac.GetTime()
		if err == nil && t != now {
			err = fmt.Errorf("GetTime = %d, clock frozen at %d", t, now)
		}
		c.note(uint32(t))
		rec.done(clsGetTime, 0, start, start, err)
	case p < 80:
		off := c.rng.Intn(len(c.pool) - rpcBlock)
		t, err := c.ac.PlaySamples(now.Add(64+c.rng.Intn(4000)), c.pool[off:off+rpcBlock])
		if err == nil && t != now {
			err = fmt.Errorf("PlaySamples returned time %d, clock frozen at %d", t, now)
		}
		c.note(uint32(t))
		rec.done(clsPlay, rpcBlock, start, start, err)
	case p < 90:
		off := c.rng.Intn(len(c.cs.pat) - rpcBlock)
		t, n, err := c.ac.RecordSamples(c.cs.patStart.Add(off), c.rec, false)
		if err == nil && (n != rpcBlock || t != now || !bytes.Equal(c.rec, c.cs.pat[off:off+rpcBlock])) {
			err = fmt.Errorf("record at pattern offset %d: %d bytes, time %d, match %v",
				off, n, t, bytes.Equal(c.rec, c.cs.pat[off:off+rpcBlock]))
		}
		c.note(uint32(t), uint32(n))
		if c.transcript != nil {
			c.transcript.Write(c.rec)
		}
		rec.done(clsRecord, n, start, start, err)
	default:
		err := c.control()
		rec.done(clsControl, 0, start, start, err)
	}
}

// control runs one control op: an attribute change, a gain set, or a
// gain query that must echo this connection's last set.
func (c *rpcConn) control() error {
	g := -c.rng.Intn(12)
	switch c.rng.Intn(3) {
	case 0:
		return c.ctl.ChangeAttributes(af.ACPlayGain, af.ACAttributes{PlayGain: g})
	case 1:
		return c.setGain(g)
	}
	query := c.conn.QueryInputGain
	if c.outputGain {
		query = c.conn.QueryOutputGain
	}
	cur, _, _, err := query(0)
	c.note(uint32(cur))
	if err == nil && c.gainSet && cur != c.gain {
		err = fmt.Errorf("gain query returned %d dB after setting %d dB", cur, c.gain)
	}
	return err
}

func (c *rpcConn) setGain(g int) error {
	set := c.conn.SetInputGain
	if c.outputGain {
		set = c.conn.SetOutputGain
	}
	err := set(0, g)
	if err == nil {
		c.gain, c.gainSet = g, true
	}
	return err
}

// rpcBench is the rpc workload: two Unix-socket connections on one
// frozen codec, closed loop.
type rpcBench struct {
	cs      *codecServer
	clients [2]*rpcConn
}

func setupRPC(cfg *runConfig) (bench, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	cs, err := newCodecServer(cfg, "unix", rng, 0, patternFrames)
	if err != nil {
		return nil, err
	}
	b := &rpcBench{cs: cs}
	for i := range b.clients {
		nc, err := dial(cs.ln)
		if err == nil {
			b.clients[i], err = newRPCConn(nc, "", cs, rng.Int63(), i == 0)
		}
		if err != nil {
			b.close()
			return nil, err
		}
	}
	if err := cs.prime(b.clients[0].ac); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *rpcBench) conns() int        { return len(b.clients) }
func (b *rpcBench) transport() string { return "unix" }
func (b *rpcBench) drive(d time.Duration, recs []*recorder) {
	closedLoop(d, recs, func(g int, rec *recorder) { b.clients[g].step(rec) })
}
func (b *rpcBench) servers() []*aserver.Server { return []*aserver.Server{b.cs.srv} }
func (b *rpcBench) router() *aserver.Router    { return nil }
func (b *rpcBench) check() (int, []string)     { return 0, nil }
func (b *rpcBench) layers(*report) error       { return nil }
func (b *rpcBench) closeClients() {
	for _, c := range b.clients {
		if c != nil {
			c.conn.Close()
		}
	}
}
func (b *rpcBench) close() {
	b.closeClients()
	b.cs.srv.Close()
}
