package aserver

import (
	"net"
	"time"

	"audiofile/internal/atime"
	"audiofile/internal/core"
	"audiofile/internal/proto"
)

// loop is the server's control plane: the analogue of the paper's
// WaitForSomething()/Dispatch() cycle, slimmed to the operations that
// touch genuinely global state (client registry, atoms, properties, host
// access, AC lifecycle, pass-through enables). The data plane — plays,
// records, time queries — runs on the per-device engines without passing
// through here.
func (s *Server) loop() {
	defer close(s.stopped)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	// armedFor is the deadline the timer was last armed for; zero while
	// the queue is empty (the timer idles at an hour).
	var armedFor time.Time
	arm := func() {
		if when, ok := s.tasks.next(); ok {
			d := time.Until(when)
			if d < 0 {
				d = 0
			}
			timer.Reset(d)
			armedFor = when
		} else {
			timer.Reset(time.Hour)
			armedFor = time.Time{}
		}
	}
	arm()
	for {
		select {
		case c := <-s.regCh:
			// MaxClients is a soft cap: the newcomer is admitted and the
			// oldest-idle client is shed (its teardown completes on its
			// own goroutines, so the registry can transiently exceed max).
			if max := s.budget.maxClients; max > 0 {
				s.clientMu.RLock()
				n := len(s.clients)
				s.clientMu.RUnlock()
				for ; n >= max && s.shedOldestIdle(c); n-- {
				}
			}
			s.clientMu.Lock()
			s.clients[c] = struct{}{}
			s.clientMu.Unlock()
			s.sm.connects.Inc()
			s.sm.activeClients.Add(1)
		case c := <-s.unregCh:
			s.removeClient(c)
		case req := <-s.reqCh:
			if !req.c.dead.Load() {
				s.dispatch(req)
			}
			if req.done != nil {
				close(req.done)
			}
		case fn := <-s.funcCh:
			fn()
		case <-timer.C:
			s.tasks.runDue(time.Now())
			armedFor = time.Time{}
			arm()
		case <-s.done:
			s.clientMu.RLock()
			cs := make([]*client, 0, len(s.clients))
			for c := range s.clients {
				cs = append(cs, c)
			}
			s.clientMu.RUnlock()
			for _, c := range cs {
				s.removeClient(c)
			}
			return
		}
		// Re-arm whenever the earliest deadline moved up. This used to be
		// skipped while the request channel was non-empty, which delayed
		// freshly scheduled tasks under sustained load.
		if when, ok := s.tasks.next(); ok && (armedFor.IsZero() || when.Before(armedFor)) {
			arm()
		}
	}
}

// removeClient releases a client's server-side resources. Runs in the
// loop, either after the reader exited (unregister) or at shutdown.
func (s *Server) removeClient(c *client) {
	if c.removed {
		return
	}
	c.removed = true
	c.dead.Store(true)
	// The close reason is frozen here; the writer counts the disconnect
	// once it has settled the queue (drainResidual).
	c.removedReason = c.closeReason.Load()
	s.clientMu.Lock()
	delete(s.clients, c)
	s.clientMu.Unlock()
	// Discard any blocked request the client still holds; this releases
	// its pinned buffers and its reader if it is waiting on the park.
	// Broadcast subscriptions go with it, so the channel pump stops
	// encoding for formats only this client wanted.
	for _, e := range s.engines {
		e.dropClientParks(c)
		e.dropClientSubs(c)
	}
	for _, a := range c.acs {
		s.releaseAC(a)
	}
	// Wake the writer so it drains and closes the conn, and unblock the
	// reader. The close publishes removedReason to the writer.
	close(c.closed)
}

// releaseAC undoes an audio context's device-side bookkeeping: the
// record refcount and any broadcast subscription.
func (s *Server) releaseAC(a *ac) {
	// Both flags are guarded by the engine lock: recording races only
	// with this context's own (ordered) requests, but subscribed is also
	// cleared by the pump's dead-subscriber sweep on scheduler workers.
	e := s.engineByDev[a.devIndex]
	e.mu.Lock()
	if a.recording {
		e.root.RecRefCount--
		a.recording = false
	}
	e.unsubscribeLocked(a)
	e.mu.Unlock()
}

// deliverEvent sends an event to every client that selected its class on
// the device. Per §5.2, events carry both the device time (supplied by
// the caller, read under the owning engine's lock) and the server host's
// clock time. Safe from the loop and from engine goroutines.
func (s *Server) deliverEvent(devIndex int, now atime.ATime, code uint8, detail byte, value uint32) {
	mask := proto.EventMaskFor(code)
	host := time.Now()
	s.clientMu.RLock()
	defer s.clientMu.RUnlock()
	for c := range s.clients {
		if c.eventMasks[devIndex]&mask == 0 {
			continue
		}
		ev := proto.Event{
			Code:     code,
			Detail:   detail,
			Device:   uint32(devIndex),
			Time:     uint32(now),
			HostSec:  uint32(host.Unix()),
			HostNsec: uint32(host.Nanosecond()),
			Value:    value,
		}
		c.sendEvent(&ev)
	}
}

// deviceTime reads a device's buffer-write time under its engine's lock.
func (s *Server) deviceTime(dev uint32) atime.ATime {
	e := s.engineByDev[dev]
	e.mu.Lock()
	t := s.devices[dev].Time()
	e.mu.Unlock()
	return t
}

// deviceNow reads a device's current time under its engine's lock.
func (s *Server) deviceNow(dev uint32) atime.ATime {
	e := s.engineByDev[dev]
	e.mu.Lock()
	t := s.devices[dev].Now()
	e.mu.Unlock()
	return t
}

// updateEngine runs one update cycle on the engine owning dev, used by
// control operations that need an immediate device-side effect (hook
// events, shutdown flushes).
func (s *Server) updateEngine(dev uint32) {
	e := s.engineByDev[dev]
	e.mu.Lock()
	e.updateLocked()
	e.mu.Unlock()
}

// patch is an enabled pass-through connection between two devices
// (§7.4.1): audio recorded on one is played on the other, both ways,
// entirely inside the server. The staging buffer lives on the patch for
// its whole life, so pumping never allocates.
type patch struct {
	a, b   *core.Device
	aTaken atime.ATime // recorded frames of a consumed through here
	bTaken atime.ATime
	aOut   atime.ATime // next play time on a (for b's audio)
	bOut   atime.ATime // next play time on b (for a's audio)
	buf    []byte
}

// newPatch wires devices a and b together starting at their current
// times. Both engines' locks are held by the caller.
func newPatch(a, b *core.Device) *patch {
	lead := a.Backend().HWFrames() / 2
	return &patch{
		a: a, b: b,
		aTaken: a.Time(), bTaken: b.Time(),
		aOut: atime.Add(a.Now(), lead),
		bOut: atime.Add(b.Now(), lead),
		buf:  make([]byte, 4096*a.FrameBytes()),
	}
}

// hostAllowed applies host-based access control to a new connection.
func (s *Server) hostAllowed(conn net.Conn) bool {
	allowed := true
	s.Do(func() {
		if !s.accessEnabled {
			return
		}
		entry := hostEntryFor(conn.RemoteAddr())
		if entry.Family == proto.FamilyLocal {
			return // local connections are always allowed
		}
		for _, h := range s.accessList {
			if h.Family == entry.Family && string(h.Addr) == string(entry.Addr) {
				return
			}
		}
		allowed = false
	})
	return allowed
}

// hostEntryFor classifies a remote address for the access list.
func hostEntryFor(addr net.Addr) proto.HostEntry {
	switch a := addr.(type) {
	case *net.TCPAddr:
		if v4 := a.IP.To4(); v4 != nil {
			return proto.HostEntry{Family: proto.FamilyInternet, Addr: v4}
		}
		return proto.HostEntry{Family: proto.FamilyInternet6, Addr: a.IP}
	default:
		return proto.HostEntry{Family: proto.FamilyLocal, Addr: []byte("local")}
	}
}
