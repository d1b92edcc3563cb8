package main

import (
	"fmt"

	"audiofile/aserver"
	"audiofile/internal/lineserver"
)

// The conservation laws the server, router and lineserver backend
// document on their snapshot types. Live laws are one-sided and hold in
// every snapshot, so a violation fails the run. Drained laws are the exact
// forms that should hold once every client is gone; they are recorded, not
// enforced, so a known drain defect stays visible without failing runs.

func liveServerLaws(s aserver.Snapshot) []string {
	var v []string
	if sum := s.Evictions + s.Sheds + s.Drains + s.ClientCloses; s.Disconnects > sum {
		v = append(v, fmt.Sprintf("disconnects %d > evictions+sheds+drains+client_closes %d", s.Disconnects, sum))
	}
	if s.DispatchBatch.Sum > s.Requests {
		v = append(v, fmt.Sprintf("dispatch batch sum %d > requests %d", s.DispatchBatch.Sum, s.Requests))
	}
	for _, d := range s.Devices {
		if d.FramesAccepted != d.FramesBuffered+d.FramesDiscarded {
			v = append(v, fmt.Sprintf("device %d: accepted %d != buffered %d + discarded %d",
				d.Index, d.FramesAccepted, d.FramesBuffered, d.FramesDiscarded))
		}
		if d.FramesPreempted > d.FramesBuffered {
			v = append(v, fmt.Sprintf("device %d: preempted %d > buffered %d", d.Index, d.FramesPreempted, d.FramesBuffered))
		}
		if d.BcastEncodes < d.BcastChunks {
			v = append(v, fmt.Sprintf("device %d: broadcast encodes %d < chunks %d", d.Index, d.BcastEncodes, d.BcastChunks))
		}
		if ls := d.Lineserver; ls != nil {
			v = append(v, lineserverLaws(d.Index, *ls, false)...)
		}
	}
	return v
}

func lineserverLaws(dev int, ls lineserver.BackendStats, exact bool) []string {
	var v []string
	classified := ls.Accepted + ls.Stale + ls.Duplicate
	if ls.Replies < classified || exact && ls.Replies != classified {
		v = append(v, fmt.Sprintf("device %d: lineserver replies %d vs accepted+stale+duplicate %d", dev, ls.Replies, classified))
	}
	ended := ls.ResyncsCompleted + ls.ResyncsAbandoned
	if ls.ResyncsStarted < ended || exact && ls.ResyncsStarted != ended {
		v = append(v, fmt.Sprintf("device %d: lineserver resyncs started %d vs completed+abandoned %d", dev, ls.ResyncsStarted, ended))
	}
	return v
}

func routerLaws(r aserver.RouterSnapshot, exact bool) []string {
	var v []string
	ended := r.FailoversCompleted + r.FailoversAbandoned
	if r.FailoversStarted < ended || exact && r.FailoversStarted != ended {
		v = append(v, fmt.Sprintf("router failovers started %d vs completed+abandoned %d", r.FailoversStarted, ended))
	}
	closed := r.ClosedClient + r.ClosedBackend + r.FailoversStarted
	if r.Routes < closed || exact && r.Routes != closed {
		v = append(v, fmt.Sprintf("router routes %d vs closed_client+closed_backend+failovers_started %d", r.Routes, closed))
	}
	if exact && r.SessionsActive != 0 {
		v = append(v, fmt.Sprintf("router sessions_active %d after drain", r.SessionsActive))
	}
	return v
}

// drainedServerLaws are the exact laws of a server with no clients left,
// read on the snapshot that first reports Connects == Disconnects and no
// active clients or parks — the server's own notion of drained.
func drainedServerLaws(s aserver.Snapshot) []string {
	var v []string
	if s.Connects != s.Disconnects || s.ActiveClients != 0 {
		v = append(v, fmt.Sprintf("connects %d, disconnects %d, active %d after drain", s.Connects, s.Disconnects, s.ActiveClients))
	}
	if s.QueuedBytes != 0 {
		v = append(v, fmt.Sprintf("queued bytes %d after drain", s.QueuedBytes))
	}
	if s.FrameBytesInFlight != 0 {
		v = append(v, fmt.Sprintf("frame bytes in flight %d after drain", s.FrameBytesInFlight))
	}
	if sum := s.Evictions + s.Sheds + s.Drains + s.ClientCloses; s.Disconnects != sum {
		v = append(v, fmt.Sprintf("disconnects %d != evictions+sheds+drains+client_closes %d", s.Disconnects, sum))
	}
	if s.DispatchBatch.Sum != s.Requests {
		v = append(v, fmt.Sprintf("dispatch batch sum %d != requests %d", s.DispatchBatch.Sum, s.Requests))
	}
	for _, d := range s.Devices {
		if d.ParksStarted != d.ParksCompleted+d.ParksDiscarded || d.ParkedNow != 0 {
			v = append(v, fmt.Sprintf("device %d: parks started %d, completed %d, discarded %d, parked %d",
				d.Index, d.ParksStarted, d.ParksCompleted, d.ParksDiscarded, d.ParkedNow))
		}
	}
	return v
}

// drained reports whether a snapshot shows the server's own drained
// condition.
func drained(s aserver.Snapshot) bool {
	if s.Connects != s.Disconnects || s.ActiveClients != 0 {
		return false
	}
	for _, d := range s.Devices {
		if d.ParkedNow != 0 {
			return false
		}
	}
	return true
}
