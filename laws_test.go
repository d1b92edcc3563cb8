// The law book's own test: each snapshot type's Laws method, held to a
// real drained snapshot. Every law gets a mutation that breaks it and
// nothing else, and must be reported by name in each mode where it
// applies and in no other; the one-sided live forms must accept the
// in-flight skew they exist for. Without this, a Laws that reported
// nothing would pass every soak that calls it.
package audiofile

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"audiofile/af"
	"audiofile/aserver"
	"audiofile/internal/lineserver"
	"audiofile/internal/metrics"
	"audiofile/internal/soaktest"
	"audiofile/internal/vdev"
)

// lawCase mutates a drained snapshot so that law, and only law, breaks
// ("" for none): Drained mode must report exactly law, and Live mode
// too when live is set.
type lawCase[S any] struct {
	law    string
	live   bool
	mutate func(*S)
}

// checkLawBook runs every case against a deep copy of base.
func checkLawBook[S any](t *testing.T, base S, laws func(S, metrics.Mode) []metrics.Violation, cases []lawCase[S]) {
	t.Helper()
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		var s S
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Fatal(err)
		}
		if c.mutate != nil {
			c.mutate(&s)
		}
		for _, mode := range []metrics.Mode{metrics.Live, metrics.Drained} {
			want := c.law
			if mode == metrics.Live && !c.live {
				want = ""
			}
			var got []string
			for _, v := range laws(s, mode) {
				got = append(got, v.Law)
			}
			if g := strings.Join(got, ","); g != want {
				t.Errorf("case %d (%q), %v mode: laws reported %q, want %q", i, c.law, mode, g, want)
			}
		}
	}
}

func TestLawBook(t *testing.T) {
	srv, rs, ls := drainedSnapshots(t)
	if srv.ClientCloses == 0 || srv.DispatchBatch.Sum == 0 || rs.Routes == 0 || ls.Replies == 0 {
		t.Fatalf("workload left nothing to mutate: %+v %+v %+v", srv, rs, ls)
	}
	d := func(s *aserver.Snapshot) *aserver.DeviceStats { return &s.Devices[0] }
	embed := func(s *aserver.Snapshot, mutate func(*lineserver.BackendStats)) {
		b := ls
		mutate(&b)
		d(s).Lineserver = &b
	}
	checkLawBook(t, srv, aserver.Snapshot.Laws, []lawCase[aserver.Snapshot]{
		{"", false, nil},
		{"close_reasons", true, func(s *aserver.Snapshot) { s.ClientCloses-- }},
		{"close_reasons", false, func(s *aserver.Snapshot) { s.Evictions++ }}, // reason ahead of its disconnect
		{"dispatch_batch", true, func(s *aserver.Snapshot) { s.DispatchBatch.Sum++ }},
		{"dispatch_batch", false, func(s *aserver.Snapshot) { s.DispatchBatch.Sum-- }}, // request ahead of its batch
		{"dispatch_counts", false, func(s *aserver.Snapshot) { s.DispatchGetTimeNs.Count++ }},
		{"clients", false, func(s *aserver.Snapshot) { s.ActiveClients = 1 }},
		{"clients", false, func(s *aserver.Snapshot) { s.Connects++ }},
		{"queued_bytes", false, func(s *aserver.Snapshot) { s.QueuedBytes = 64 }},
		{"frame_bytes", false, func(s *aserver.Snapshot) { s.FrameBytesInFlight = 64 }},
		{"frames", true, func(s *aserver.Snapshot) { d(s).FramesDiscarded++ }},
		{"preempted", true, func(s *aserver.Snapshot) { d(s).FramesPreempted = d(s).FramesBuffered + 1 }},
		{"parks", false, func(s *aserver.Snapshot) { d(s).ParksCompleted++ }},
		{"parks", false, func(s *aserver.Snapshot) { d(s).ParkedNow = 1 }},
		{"bcast_encodes", true, func(s *aserver.Snapshot) { d(s).BcastChunks = d(s).BcastEncodes + 1 }},
		{"", false, func(s *aserver.Snapshot) { d(s).BcastEncodes++ }}, // one encode per live format
		{"bcast_subs", false, func(s *aserver.Snapshot) { d(s).BcastSubs = 1 }},
		// Draining a server leaves its lineserver backends open, so their
		// laws are checked live in both modes.
		{"ls_replies", true, func(s *aserver.Snapshot) { embed(s, func(b *lineserver.BackendStats) { b.Accepted++ }) }},
		{"", false, func(s *aserver.Snapshot) { embed(s, func(b *lineserver.BackendStats) { b.Replies++ }) }},
	})
	checkLawBook(t, rs, aserver.RouterSnapshot.Laws, []lawCase[aserver.RouterSnapshot]{
		{"", false, nil},
		{"router_failovers", true, func(s *aserver.RouterSnapshot) { s.FailoversCompleted++ }},
		{"router_failovers", false, func(s *aserver.RouterSnapshot) { s.FailoversStarted++; s.Routes++ }},
		{"router_routes", true, func(s *aserver.RouterSnapshot) { s.ClosedClient++ }},
		{"router_routes", false, func(s *aserver.RouterSnapshot) { s.Routes++ }},
		{"router_sessions", false, func(s *aserver.RouterSnapshot) { s.SessionsActive = 1 }},
	})
	checkLawBook(t, ls, lineserver.BackendStats.Laws, []lawCase[lineserver.BackendStats]{
		{"", false, nil},
		{"ls_replies", true, func(s *lineserver.BackendStats) { s.Accepted++ }},
		{"ls_replies", false, func(s *lineserver.BackendStats) { s.Replies++ }},
		{"ls_resyncs", true, func(s *lineserver.BackendStats) { s.ResyncsAbandoned++ }},
		{"ls_resyncs", false, func(s *lineserver.BackendStats) { s.ResyncsStarted++ }},
	})
}

// drainedSnapshots plays through a router to an afd and returns the
// drained server and router snapshots, and the stats of a lineserver
// backend closed after register and audio round trips.
func drainedSnapshots(t *testing.T) (aserver.Snapshot, aserver.RouterSnapshot, lineserver.BackendStats) {
	srv, err := aserver.New(aserver.Options{
		Devices: []aserver.DeviceSpec{{Kind: "codec", Name: "codec0", Clock: vdev.NewManualClock(8000)}},
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	bl, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	router, err := aserver.NewRouter(aserver.RouterOptions{Backends: []string{bl.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := af.NewConn(router.DialPipe())
	if err != nil {
		t.Fatal(err)
	}
	conn.SetIOErrorHandler(func(*af.Conn, error) {})
	ac, err := conn.CreateAC(0, 0, af.ACAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	now, err := ac.GetTime()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ac.PlaySamples(now, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	var rs aserver.RouterSnapshot
	soaktest.WaitFor(t, 10*time.Second, "router drained", func() bool {
		rs = router.Snapshot()
		return rs.SessionsActive == 0
	})
	router.Close() // and with it the backend session of its prober
	s := drainSnapshot(t, srv)

	fw, err := lineserver.NewFirmware(lineserver.FirmwareConfig{Clock: vdev.NewManualClock(8000)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fw.Close)
	b, err := lineserver.Dial(fw.Addr(), 8000, lineserver.WithoutExtrapolation())
	if err != nil {
		t.Fatal(err)
	}
	b.WriteReg(lineserver.RegOutputGain, 3)
	b.WritePlay(b.Time(), make([]byte, 64))
	b.Close()
	return s, rs, b.Stats()
}
