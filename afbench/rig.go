package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"audiofile/af"
	"audiofile/aserver"
	"audiofile/internal/vdev"
)

// bench is one set-up workload: its servers, its client connections and
// the load it drives through them.
type bench interface {
	// conns is the number of client connections, one generator each.
	conns() int
	// drive runs the load for d, one recorder per connection.
	drive(d time.Duration, recs []*recorder)
	// transport is "unix" or "tcp": what the connections run over.
	transport() string
	servers() []*aserver.Server
	router() *aserver.Router // nil without one
	// check runs the untimed output checks after the measured windows
	// and returns how many it made and the failures.
	check() (int, []string)
	// layers adds the per-layer metrics only this workload can measure;
	// it runs after the traced window.
	layers(rep *report) error
	closeClients()
	close()
}

// workloads build each workload's bench; the same seed gives the same op
// mixes, payloads, offsets and route keys.
var workloads = map[string]func(cfg *runConfig) (bench, error){
	"rpc":      setupRPC,
	"stream":   setupStream,
	"fleet":    setupFleet,
	"realtime": setupRealtime,
}

var sockSeq atomic.Int64

// listenAddr picks a listen address on a transport: a fresh Unix socket
// path under the run's socket directory, or an ephemeral loopback port.
func (cfg *runConfig) listenAddr(network string) string {
	if network == "unix" {
		return filepath.Join(cfg.sockDir, fmt.Sprintf("s%d", sockSeq.Add(1)))
	}
	return "127.0.0.1:0"
}

func dial(l net.Listener) (net.Conn, error) {
	return net.Dial(l.Addr().Network(), l.Addr().String())
}

func quiet(string, ...any) {}

// codecServer is an afd with one loopback µ-law codec on a frozen manual
// clock, primed so that its record buffer holds a seeded pattern.
type codecServer struct {
	srv *aserver.Server
	clk *vdev.ManualClock
	ln  net.Listener

	now      af.ATime // device time, frozen after priming
	patStart af.ATime // the pattern occupies [patStart, patStart+len(pat))
	pat      []byte
}

// patternFrames is how much seeded audio priming leaves in a 4 s record
// buffer: room for the largest record any workload asks for.
const patternFrames = 28000

// newCodecServer builds the server with the codec as device 0, followed
// by any extra devices.
func newCodecServer(cfg *runConfig, network string, rng *rand.Rand, bufSeconds float64, patFrames int, extra ...aserver.DeviceSpec) (*codecServer, error) {
	clk := vdev.NewManualClock(8000)
	devs := append([]aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Clock: clk, Loopback: true, BufSeconds: bufSeconds}}, extra...)
	srv, err := aserver.New(aserver.Options{Devices: devs, Logf: quiet})
	if err != nil {
		return nil, err
	}
	ln, err := srv.Listen(network, cfg.listenAddr(network))
	if err != nil {
		srv.Close()
		return nil, err
	}
	cs := &codecServer{srv: srv, clk: clk, ln: ln, pat: make([]byte, patFrames)}
	rng.Read(cs.pat)
	return cs, nil
}

// prime plays the pattern through ac (a preempting context on the codec)
// and walks the manual clock past it, so the loopback cable carries it
// into the record buffer. The clock then stays frozen: every GetTime
// returns the same time and every record inside the pattern returns the
// pattern's bytes.
func (cs *codecServer) prime(ac *af.AC) error {
	t, err := ac.GetTime()
	if err != nil {
		return err
	}
	// A first record marks the context recording, so updates capture.
	if _, _, err := ac.RecordSamples(t.Add(-4), make([]byte, 4), false); err != nil {
		return err
	}
	cs.patStart = t.Add(64)
	if _, err := ac.PlaySamples(cs.patStart, cs.pat); err != nil {
		return err
	}
	for moved := 0; moved < 64+len(cs.pat)+512; moved += 512 {
		cs.clk.Advance(512)
		cs.srv.Sync()
	}
	if cs.now, err = ac.GetTime(); err != nil {
		return err
	}
	got := make([]byte, len(cs.pat))
	if _, n, err := ac.RecordSamples(cs.patStart, got, false); err != nil || n != len(got) || !bytes.Equal(got, cs.pat) {
		return fmt.Errorf("primed record buffer does not hold the pattern (n=%d, err=%v)", n, err)
	}
	return nil
}

// closeAll closes connections, ignoring nil ones.
func closeAll(conns ...*af.Conn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

// closedLoop runs step on every connection's generator until d has
// passed; each generator issues its next call when the previous returns.
func closedLoop(d time.Duration, recs []*recorder, step func(g int, rec *recorder)) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				step(g, recs[g])
			}
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
}

// seededPool is a block of seeded bytes payloads are sliced from.
func seededPool(rng *rand.Rand, n int) []byte {
	p := make([]byte, n)
	rng.Read(p)
	return p
}
