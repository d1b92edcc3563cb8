// Router overload regression: the per-client overload policy (byte
// budget + eviction) must keep working when the wedged client sits
// behind the fleet router instead of on a direct connection. The router
// forwards backpressure instead of absorbing it: its backend→client
// pump writes under a rolling stall deadline, so a client that stops
// reading stalls the pump, the router stops draining the backend, the
// backend's per-client queue crosses its budget, and the backend evicts
// the session — while a canary client on the same router and backend
// streams unharmed. A deliberate eviction must NOT be misread as a
// backend death: the router's confirm probe sees the backend answering,
// so failovers_started stays zero and the close is classified as a
// plain session close.
package audiofile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"audiofile/af"
	"audiofile/aserver"
	"audiofile/internal/metrics"
	"audiofile/internal/proto"
	"audiofile/internal/soaktest"
	"audiofile/internal/vdev"
)

func TestRouterOverloadEviction(t *testing.T) {
	const (
		rate         = 8000
		clientBudget = 32 << 10
		evictGrace   = 100 * time.Millisecond
		// The flooder writes until it is cut. The reply stream must
		// overflow kernel socket buffering on BOTH hops (backend→router
		// and router→client) before user-space queueing — and thus the
		// eviction policy — sees backpressure, and autotuned buffers can
		// absorb megabytes, so no fixed request count is sure to be
		// enough.
		floodLimit = 30 * time.Second
	)

	clk := vdev.NewManualClock(rate)
	srv, err := aserver.New(aserver.Options{
		Devices:          []aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Clock: clk}},
		Logf:             func(string, ...any) {},
		ClientQueueBytes: clientBudget,
		EvictGrace:       evictGrace,
	})
	if err != nil {
		t.Fatal(err)
	}
	bl, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	router, err := aserver.NewRouter(aserver.RouterOptions{
		Backends:      []string{bl.Addr().String()},
		ProbeInterval: 25 * time.Millisecond,
		// The stall backstop must lose the race against the backend's
		// eviction policy — this test is about the BACKEND evicting the
		// flooder, with the router merely forwarding backpressure. Under
		// the race detector the backend needs several seconds to push
		// its reply queue over budget, so the backstop sits well beyond
		// that; it only matters for a wedged client whose backend never
		// acts at all.
		ClientWriteStall: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := router.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	routerAddr := rl.Addr().String()

	// Clock stepper so canary parks resolve.
	stopStepper := soaktest.Every(t, 50*time.Microsecond, func() { clk.Advance(256); srv.Sync() })

	var errs soaktest.FirstError
	fail := errs.Set

	// The wedged consumer, through the router: floods pipelined GetTime
	// requests and never reads a reply. Its receive buffer is pinned
	// small so the kernel cannot drain the reply stream for it.
	var floodWG sync.WaitGroup
	floodWG.Add(1)
	go func() {
		defer floodWG.Done()
		nc, err := net.Dial("tcp", routerAddr)
		if err != nil {
			fail(err)
			return
		}
		defer nc.Close()
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetReadBuffer(4096) //nolint:errcheck
		}
		setup := proto.SetupRequest{
			ByteOrder: proto.LittleEndianOrder,
			Major:     proto.ProtocolMajor,
			Minor:     proto.ProtocolMinor,
		}
		if err := setup.Send(nc); err != nil {
			fail(fmt.Errorf("flooder setup: %w", err))
			return
		}
		if _, err := proto.ReadSetupReply(nc, binary.LittleEndian); err != nil {
			fail(fmt.Errorf("flooder setup reply: %w", err))
			return
		}
		var w proto.Writer
		w.Order = binary.LittleEndian
		const burst = 64
		for i := 0; i < burst; i++ {
			proto.AppendDeviceReq(&w, proto.OpGetTime, 0) //nolint:errcheck
		}
		nc.SetWriteDeadline(time.Now().Add(floodLimit)) //nolint:errcheck
		for {
			if _, err := nc.Write(w.Buf); err != nil {
				if errors.Is(err, os.ErrDeadlineExceeded) {
					fail(fmt.Errorf("flooder still connected after %v", floodLimit))
				}
				return // cut by the eviction: the expected outcome
			}
		}
	}()

	// The canary: a routed client whose every operation must succeed
	// while the flooder is being strangled next door.
	var canaryOps atomic.Int64
	var canaryWG sync.WaitGroup
	canaryWG.Add(1)
	go func() {
		defer canaryWG.Done()
		conn, err := af.NewConn(router.DialPipe())
		if err != nil {
			fail(err)
			return
		}
		defer conn.Close()
		conn.SetIOErrorHandler(func(*af.Conn, error) {})
		ac, err := conn.CreateAC(0, 0, af.ACAttributes{})
		if err != nil {
			fail(err)
			return
		}
		data := make([]byte, 512)
		buf := make([]byte, 256)
		for j := 0; j < 100; j++ {
			now, err := ac.GetTime()
			if err != nil {
				fail(fmt.Errorf("canary GetTime %d: %w", j, err))
				return
			}
			if _, err := ac.PlaySamples(now.Add(1024), data); err != nil {
				fail(fmt.Errorf("canary play %d: %w", j, err))
				return
			}
			if j%5 == 0 {
				if _, _, err := ac.RecordSamples(now, buf, true); err != nil {
					fail(fmt.Errorf("canary record %d: %w", j, err))
					return
				}
			}
			canaryOps.Add(1)
		}
	}()

	waitDone := func(what string, wg *sync.WaitGroup, timeout time.Duration) {
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(timeout):
			t.Fatalf("%s did not finish in %v", what, timeout)
		}
	}
	waitDone("flooder", &floodWG, 60*time.Second)
	waitDone("canary", &canaryWG, 60*time.Second)
	stopStepper()

	if err := errs.Err(); err != nil {
		t.Fatalf("workload error: %v", err)
	}
	if n := canaryOps.Load(); n != 100 {
		t.Errorf("canary completed %d/100 iterations", n)
	}

	// Router drained (both the flooder and the canary are gone).
	var rs aserver.RouterSnapshot
	soaktest.WaitFor(t, 10*time.Second, "router drained", func() bool {
		rs = router.Snapshot()
		return rs.SessionsActive == 0
	})
	soaktest.Laws(t, "drained router", rs.Laws(metrics.Drained))
	// A deliberate eviction is not a failover: the confirm probe found
	// the backend alive, so every close is a plain classification.
	if rs.FailoversStarted != 0 {
		t.Errorf("failovers_started = %d after a deliberate eviction, want 0", rs.FailoversStarted)
	}
	router.Close()

	// The backend must have evicted the flooder, and its own books —
	// including the close-reason accounting — must balance exactly.
	s := drainSnapshot(t, srv)
	if s.Evictions < 1 {
		t.Errorf("backend evictions = %d, want >= 1 (the wedged flooder)", s.Evictions)
	}
	soaktest.Laws(t, "drained server", s.Laws(metrics.Drained))
	t.Logf("evictions %d | router routes %d closed %d/%d | canary ops %d",
		s.Evictions, rs.Routes, rs.ClosedClient, rs.ClosedBackend, canaryOps.Load())

	bl.Close()
	srv.Close()
}
