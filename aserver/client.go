package aserver

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"audiofile/internal/core"
	"audiofile/internal/proto"
	"audiofile/internal/sampleconv"
)

// request is one framed client request. Hot (data-plane) requests are
// dispatched inline by the reader; control-plane requests make a
// synchronous round trip through the server loop.
type request struct {
	c    *client
	op   uint8
	ext  uint8
	body []byte
	// frame is the pooled buffer backing body (nil when the body is
	// caller-owned, as in tests and benchmarks). A park takes ownership
	// of the frame; otherwise the reader recycles it after dispatch.
	frame *[]byte
	// done is set on control-plane requests: the loop closes it once the
	// request has been dispatched, releasing the reader to move on. The
	// round trip is what preserves per-connection FIFO order across the
	// control/data plane split.
	done chan struct{}
}

// ac is the server-side audio context (§5.6): the parameters a client
// binds once instead of repeating on every play and record request.
//
// An ac is touched by two goroutines — the connection's reader (hot
// dispatch) and the server loop (attribute changes) — but never at the
// same time: the reader performs control operations as synchronous round
// trips, so every loop-side mutation is ordered against the reader's own
// requests. Fields shared with engine retries (recording, coder state)
// are only used under the owning engine's lock.
type ac struct {
	id       uint32
	dev      *core.Device
	devIndex int
	playGain int
	recGain  int
	preempt  bool
	enc      sampleconv.Encoding
	channels int
	// Conversion-module state for compressed contexts (§5.4: conversion
	// modules handle compressed audio data types). ADPCM is stateful, so
	// each direction keeps a coder across requests of the stream.
	playCoder *sampleconv.ADPCMCoder
	recCoder  *sampleconv.ADPCMCoder
	// recording marks contexts that have recorded at least once; the
	// first record increments the device's RecRefCount so the periodic
	// record update runs (§7.4.1). Guarded by the owning engine's lock.
	recording bool
	// subscribed marks contexts attached to their device's broadcast
	// channel (broadcast.go). Guarded by the owning engine's lock.
	subscribed bool
}

// client is one connection's server-side state.
type client struct {
	s     *Server
	conn  net.Conn
	order binary.ByteOrder

	// seq counts dispatched requests; its low 16 bits are the protocol
	// sequence number. Atomic because events are stamped with it from
	// engine goroutines while the reader advances it.
	seq atomic.Uint32
	// dead marks a client that must receive no further output (eviction,
	// unregister). Checked by every sender.
	dead atomic.Bool

	outCh  chan *wireMsg
	closed chan struct{}

	// queuedBytes is the marshaled bytes sitting in outCh: incremented by
	// send before enqueue, decremented by the writer after the bytes
	// reach the kernel (and by drainResidual for bytes that never do).
	queuedBytes atomic.Int64
	// lastActive is the unix-nano time of the last dispatched request,
	// the idleness key for server-wide shedding.
	lastActive atomic.Int64
	// flow is the slow-consumer eviction policy (see overload.go).
	flow evictPolicy

	// Eviction state. evict() runs once: it records why (closeReason,
	// frozen by removeClient, counted by drainResidual) and what to tell
	// the client (goodbye, a proto.Err* code the writer sends as its last
	// message), then interrupts the writer via the evicted channel.
	goodbye     atomic.Uint32
	closeReason atomic.Uint32
	evicted     chan struct{}
	evictOnce   sync.Once

	acs        map[uint32]*ac
	eventMasks map[int]uint32 // guarded by Server.clientMu

	// stage coalesces small replies generated while dispatching a run
	// (stagedReply/flushStage). Touched only by the goroutine inside
	// dispatchHotGroup and always flushed before the group's engine lock
	// drops, so it is empty between groups and teardown never finds bytes
	// here.
	stage *wireMsg

	removed       bool   // loop-side flag: removeClient already ran
	removedReason uint32 // closeReason as removeClient saw it
}

// newClient builds a connection's server-side state with the server's
// per-client budgets applied. Shared by handleConn and the bench/test
// harnesses so they exercise the real queue and writer policy.
func newClient(s *Server, conn net.Conn, order binary.ByteOrder) *client {
	c := &client{
		s:          s,
		conn:       conn,
		order:      order,
		outCh:      make(chan *wireMsg, outQueueDepth),
		closed:     make(chan struct{}),
		evicted:    make(chan struct{}),
		acs:        make(map[uint32]*ac),
		eventMasks: make(map[int]uint32),
	}
	// Field-by-field: evictPolicy holds an atomic and must not be copied.
	c.flow.budget = s.budget.clientQueue
	c.flow.grace = s.budget.evictGrace
	c.flow.rate = s.budget.evictRate
	c.lastActive.Store(time.Now().UnixNano())
	return c
}

// evict marks the client for disconnection with a typed protocol error.
// First call wins; the writer wakes, sends the goodbye, and closes the
// transport. Callable from any goroutine, never blocks.
func (c *client) evict(reason uint32, code uint8) {
	c.evictOnce.Do(func() {
		c.closeReason.Store(reason)
		c.goodbye.Store(uint32(code))
		c.dead.Store(true)
		// A writer blocked mid-write on a transport that stopped draining
		// must not delay the teardown: expire the in-flight write. The
		// goodbye flush arms its own fresh deadline.
		c.conn.SetWriteDeadline(time.Now()) //nolint:errcheck
		close(c.evicted)
	})
}

// outQueueDepth bounds the per-client outgoing message queue in
// messages; it is the hard backstop behind the byte-budget policy. A
// client that stops reading while the server has this many messages
// queued is evicted immediately rather than allowed to wedge the server.
const outQueueDepth = 1024

// handleConn performs connection setup and runs the reader.
func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		// The writer goroutine owns closing the conn after draining.
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		// Request and reply boundaries matter more than segment
		// coalescing for an interactive audio stream.
		tc.SetNoDelay(!s.opts.TCPDelay) //nolint:errcheck
	}
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	setup, order, err := proto.ReadSetupRequest(conn)
	if err != nil {
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})

	// A draining server accepts no new sessions; the listener is already
	// closed, but races (and DialPipe) can still deliver setups here.
	if s.draining.Load() {
		rep := proto.SetupReply{Success: false, Reason: "server draining",
			Major: proto.ProtocolMajor, Minor: proto.ProtocolMinor}
		rep.Send(conn, order) //nolint:errcheck
		conn.Close()
		return
	}

	// Version negotiation: the major version must match; minor skew is
	// tolerated (the X convention the protocol setup copies).
	if setup.Major != proto.ProtocolMajor {
		rep := proto.SetupReply{Success: false,
			Reason: fmt.Sprintf("protocol version mismatch: server %d.%d, client %d.%d",
				proto.ProtocolMajor, proto.ProtocolMinor, setup.Major, setup.Minor),
			Major: proto.ProtocolMajor, Minor: proto.ProtocolMinor}
		rep.Send(conn, order) //nolint:errcheck
		conn.Close()
		return
	}

	if !s.hostAllowed(conn) {
		rep := proto.SetupReply{Success: false, Reason: "access denied",
			Major: proto.ProtocolMajor, Minor: proto.ProtocolMinor}
		rep.Send(conn, order) //nolint:errcheck
		conn.Close()
		return
	}

	// The setup reply's device count is a uint8 on the wire: a server
	// hosting more than 255 devices (the PBX workloads) advertises the
	// first 255. The rest are reachable by index through operations that
	// do not consult the advertised table (event selection, GetTime).
	descs := s.descs
	if len(descs) > 255 {
		descs = descs[:255]
	}
	rep := proto.SetupReply{
		Success: true,
		Major:   proto.ProtocolMajor, Minor: proto.ProtocolMinor,
		Vendor:  s.opts.Vendor,
		Devices: append([]proto.DeviceDesc(nil), descs...),
	}
	if err := rep.Send(conn, order); err != nil {
		conn.Close()
		return
	}

	c := newClient(s, conn, order)
	select {
	case s.regCh <- c:
	case <-s.done:
		conn.Close()
		return
	}

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		c.writer()
	}()
	c.reader()
}

// hotOp reports whether op belongs to the data plane: dispatched inline
// by the reader under the owning engine's lock rather than through the
// server loop.
func hotOp(op uint8) bool {
	return op == proto.OpPlaySamples || op == proto.OpRecordSamples ||
		op == proto.OpGetTime
}

// readerBufBytes sizes the reader's framing buffer. It is deliberately
// small: headers and control bodies batch through it (dozens of 8–16 byte
// requests per refill), while bulk sample payloads overflow it and are
// read by readBodyDirect straight from the socket into the pooled frame,
// skipping the intermediate copy a large bufio buffer would force.
const readerBufBytes = 512

// readBodyDirect fills body with the request bytes following the header:
// whatever the framing reader has already buffered is taken from it, and
// the remainder is read straight from the socket into the pooled frame.
func readBodyDirect(br *bufio.Reader, conn io.Reader, body []byte) error {
	n := br.Buffered()
	if n > len(body) {
		n = len(body)
	}
	if n > 0 {
		if _, err := io.ReadFull(br, body[:n]); err != nil {
			return err
		}
	}
	if n < len(body) {
		if _, err := io.ReadFull(conn, body[n:]); err != nil {
			return err
		}
	}
	return nil
}

// runFrame is one framed request in a coalesced ingress run: the header
// fields plus the pooled frame holding the body.
type runFrame struct {
	op, ext uint8
	frame   *[]byte
}

// maxRunLen bounds how many requests one ingress run carries. The run
// slice is allocated once per connection; the bound also caps how long a
// group can hold an engine lock.
const maxRunLen = 32

// reader frames requests off the wire and dispatches them: hot ops
// inline to the owning engine, control ops through the loop. It reads
// one request ahead of a blocked (parked) request — the read keeps
// disconnect detection live while parked; the barrier before dispatch
// keeps per-connection FIFO order.
//
// With batching on, after the blocking read frames one request the
// reader peeks the framing buffer and frames every further request
// already sitting whole in it (frameMore); the run then dispatches as a
// unit, with consecutive same-engine hot ops served under one lock
// acquisition (dispatchRun).
func (c *client) reader() {
	br := bufio.NewReaderSize(c.conn, readerBufBytes)
	var hdr [4]byte
	req := &request{c: c} // reused across hot requests; parks copy out of it
	var await *parked     // outstanding blocked request, if any
	run := make([]runFrame, 0, maxRunLen)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			break
		}
		op, ext := hdr[0], hdr[1]
		n := int(c.order.Uint16(hdr[2:])) * 4
		if n < 4 {
			break
		}
		framep := c.s.getFrame(n - 4)
		if err := readBodyDirect(br, c.conn, *framep); err != nil {
			c.s.putFrame(framep)
			break
		}
		run = append(run[:0], runFrame{op, ext, framep})
		if c.s.batching {
			run = c.frameMore(br, run)
		}
		cont, p := c.dispatchRun(run, await, req)
		if !cont {
			return
		}
		await = p
		if c.dead.Load() {
			break
		}
	}
	select {
	case c.s.unregCh <- c:
	case <-c.s.done:
	case <-c.closed:
	}
}

// frameMore extends run with requests already sitting whole in the
// framing buffer. It never blocks: a header is only consumed once its
// complete body is also buffered, so a partial tail stays for the main
// loop's blocking path to finish reading. A malformed header (length
// under one unit) is left unconsumed too — the main loop rejects it on
// its next iteration, after the current run has been dispatched, exactly
// where the one-at-a-time path would have stopped.
func (c *client) frameMore(br *bufio.Reader, run []runFrame) []runFrame {
	for len(run) < maxRunLen && br.Buffered() >= 4 {
		hdr, err := br.Peek(4)
		if err != nil {
			break
		}
		n := int(c.order.Uint16(hdr[2:])) * 4
		if n < 4 || br.Buffered() < n {
			break
		}
		op, ext := hdr[0], hdr[1]
		br.Discard(4) //nolint:errcheck — peeked above
		framep := c.s.getFrame(n - 4)
		if _, err := io.ReadFull(br, *framep); err != nil {
			// Unreachable — the body is buffered — but never drop a frame.
			c.s.putFrame(framep)
			break
		}
		run = append(run, runFrame{op, ext, framep})
	}
	return run
}

// dispatchRun dispatches a framed run in order: control ops round-trip
// through the loop one at a time, hot ops the shallow decode can place
// are grouped by engine and served under one lock acquisition, and
// everything else dispatches standalone. A park suspends the run at the
// parked request; the remaining frames dispatch after the park resolves,
// preserving per-connection FIFO order. It returns cont=false when the
// connection is being torn down (the caller returns without the
// unregister handshake, as the one-at-a-time path did) and the
// outstanding park, if any.
func (c *client) dispatchRun(run []runFrame, await *parked, req *request) (cont bool, _ *parked) {
	i := 0
	for i < len(run) {
		if await != nil {
			select {
			case <-await.done:
				await = nil
			case <-c.closed:
				c.putFrames(run[i:])
				return false, nil
			case <-c.s.done:
				c.putFrames(run[i:])
				return false, nil
			}
		}
		if c.dead.Load() {
			c.putFrames(run[i:])
			return true, nil
		}
		rf := run[i]
		if !hotOp(rf.op) {
			req.op, req.ext, req.body, req.frame = rf.op, rf.ext, *rf.frame, rf.frame
			req.done = make(chan struct{})
			select {
			case c.s.reqCh <- req:
			case <-c.s.done:
				c.putFrames(run[i:])
				return false, nil
			case <-c.closed:
				c.putFrames(run[i:])
				return false, nil
			}
			select {
			case <-req.done:
			case <-c.s.stopped:
				c.putFrames(run[i:])
				return false, nil
			}
			c.s.putFrame(rf.frame)
			i++
			continue
		}
		// Group consecutive hot requests the shallow decode places on the
		// same engine. hotEngine is evaluated here — after any control
		// round trip earlier in the run — so AC mutations ordered by those
		// round trips are visible.
		var e *engine
		if c.s.batching {
			e = c.s.hotEngine(c, rf)
		}
		j := i + 1
		for e != nil && j < len(run) && hotOp(run[j].op) && c.s.hotEngine(c, run[j]) == e {
			j++
		}
		if e == nil || j == i+1 {
			// Standalone: unknown destination (the dispatcher produces the
			// proper error reply) or a group of one.
			req.op, req.ext, req.body, req.frame, req.done = rf.op, rf.ext, *rf.frame, rf.frame, nil
			p := c.s.dispatchHot(req)
			if p == nil {
				c.s.putFrame(rf.frame)
			}
			// On park the frame now belongs to the parked state; it
			// returns to the pool when the park finishes.
			await = p
			i++
			continue
		}
		consumed, p := c.s.dispatchHotGroup(c, e, run[i:j], req)
		for k := i; k < i+consumed; k++ {
			if p != nil && k == i+consumed-1 {
				break // the parked request's frame belongs to the park now
			}
			c.s.putFrame(run[k].frame)
		}
		await = p
		i += consumed
	}
	return true, await
}

// putFrames returns a run's remaining pooled frames on an abort path.
func (c *client) putFrames(run []runFrame) {
	for _, rf := range run {
		c.s.putFrame(rf.frame)
	}
}

// maxWriteVec bounds how many queued messages one vectored write
// gathers. It caps the pooled buffers the writer can hold checked out at
// once; the kernel-side iovec limit is handled by net.Buffers itself.
const maxWriteVec = 64

// goodbyeTimeout bounds the final write of an evicted or drained
// connection: the typed error (and any queued tail) is offered to the
// peer for this long, then the transport closes regardless.
const goodbyeTimeout = 250 * time.Millisecond

// writer drains the outgoing queue onto the wire until the client is
// evicted or the loop closes it (c.closed). Queued messages are gathered
// into one vectored write (writev on TCP and Unix sockets), so marshaled
// bytes go from the pooled message buffers to the kernel without the
// intermediate copy a bufio layer would make. Buffers return to the pool
// once their vector has been written.
//
// While the client is over its byte budget every flush runs under a
// write deadline: a transport that stops draining for longer than the
// policy allows is a missed deadline, which is eviction. On eviction the
// writer sends the typed goodbye error, closes the conn (unblocking the
// reader), and finally settles the byte accounting for anything that
// never reached the wire (drainResidual, which must run after the close
// so the reader-unregister path can complete first).
func (c *client) writer() {
	defer c.drainResidual()
	defer c.conn.Close()
	vec := make([][]byte, 0, maxWriteVec)
	owned := make([]*wireMsg, 0, maxWriteVec)
	// bufs lives outside flush: WriteTo takes its address, and a closure
	// local would escape to the heap on every call.
	var bufs net.Buffers
	flush := func() error {
		if len(vec) == 0 {
			return nil
		}
		c.s.sm.writevBatch.Observe(int64(len(vec)))
		// WriteTo consumes the vector in place, so sum the byte count
		// first; the accounting must match what was handed over whether
		// or not the write succeeds (the transport owns the bytes now).
		var nb int64
		for _, b := range vec {
			nb += int64(len(b))
		}
		bufs = vec
		_, err := bufs.WriteTo(c.conn)
		bufs = nil
		// Release, not unconditional put: a broadcast message in the vector
		// is shared with other subscribers' queues, and only the last
		// releaser returns it to the pool.
		for _, m := range owned {
			m.release()
		}
		vec, owned = vec[:0], owned[:0]
		queued := c.queuedBytes.Add(-nb)
		c.s.sm.queuedBytes.Add(-nb)
		c.flow.onDrain(queued)
		return err
	}
	// goodbye drains what is already queued, appends the typed close
	// error if one was recorded, and writes it all best-effort under a
	// short deadline so a peer that stopped reading cannot pin us here.
	goodbye := func() {
		c.conn.SetWriteDeadline(time.Now().Add(goodbyeTimeout)) //nolint:errcheck
		for {
			select {
			case msg := <-c.outCh:
				vec = append(vec, msg.buf)
				owned = append(owned, msg)
				if len(vec) == maxWriteVec && flush() != nil {
					return
				}
				continue
			default:
			}
			break
		}
		if code := uint8(c.goodbye.Load()); code != 0 {
			m := getMsg("goodbye")
			w := proto.Writer{Order: c.order, Buf: m.buf}
			e := proto.ErrorMsg{Code: code, Seq: uint16(c.seq.Load()),
				BadValue: uint32(c.queuedBytes.Load())}
			e.Encode(&w)
			m.buf = w.Buf
			// The goodbye joins the accounting so the flush's decrement
			// balances.
			n := int64(len(m.buf))
			c.queuedBytes.Add(n)
			c.s.sm.queuedBytes.Add(n)
			vec = append(vec, m.buf)
			owned = append(owned, m)
		}
		flush() //nolint:errcheck — connection is going away
	}
	for {
		var msg *wireMsg
		select {
		case msg = <-c.outCh:
		case <-c.evicted:
			goodbye()
			return
		case <-c.closed:
			goodbye()
			return
		}
		vec = append(vec, msg.buf)
		owned = append(owned, msg)
		// Coalesce whatever else is queued into the same vector.
		for len(vec) < maxWriteVec {
			select {
			case more := <-c.outCh:
				vec = append(vec, more.buf)
				owned = append(owned, more)
				continue
			default:
			}
			break
		}
		allow, over := c.flow.writeAllowance(c.queuedBytes.Load(), time.Now().UnixNano())
		if over {
			c.conn.SetWriteDeadline(time.Now().Add(allow)) //nolint:errcheck
		}
		err := flush()
		if over && err == nil {
			c.conn.SetWriteDeadline(time.Time{}) //nolint:errcheck
		}
		if err != nil {
			if c.dead.Load() {
				// Evicted mid-write (the deadline interrupt): still try
				// to say why before closing.
				goodbye()
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				c.s.logf("aserver: client %v missed its write deadline, evicting", c.conn.RemoteAddr())
				c.evict(closeReasonEvict, proto.ErrOverload)
				goodbye()
				return
			}
			return
		}
	}
}

// drainResidual settles the byte accounting for messages that were
// queued but never written. It waits for removeClient (which closes
// c.closed) because until the client is out of every registry a sender
// may still be enqueueing; after that the final sweep is exact — any
// sender racing past the dead check compensates via unqueueOne.
//
// Only then does the client count as disconnected, so a snapshot with
// connects == disconnects and no active clients means the server holds
// no queued bytes or pooled messages for any of them, and Server.Drain,
// whose Close waits for every writer, returns on the same condition.
func (c *client) drainResidual() {
	settle := func(m *wireMsg) {
		n := int64(len(m.buf))
		c.queuedBytes.Add(-n)
		c.s.sm.queuedBytes.Add(-n)
		m.release()
	}
	for {
		select {
		case m := <-c.outCh:
			settle(m)
		case <-c.closed:
			for {
				select {
				case m := <-c.outCh:
					settle(m)
				default:
					// Classify the disconnect before counting it: every
					// reader then sees disconnects <= evictions + sheds +
					// drains + client closes, with equality once drained.
					sm := c.s.sm
					sm.closeCounterFor(c.removedReason).Inc()
					sm.disconnects.Inc()
					sm.activeClients.Add(-1)
					return
				}
			}
		}
	}
}

// unqueueOne removes and settles one queued message, if any. Called by a
// sender that enqueued and then observed the client dead: the writer's
// final sweep may already be done, so the sender takes one message back
// out (not necessarily its own; the accounting balances either way)
// rather than strand bytes in the queue.
func (c *client) unqueueOne() {
	select {
	case m := <-c.outCh:
		n := int64(len(m.buf))
		c.queuedBytes.Add(-n)
		c.s.sm.queuedBytes.Add(-n)
		m.release()
	default:
	}
}

// send queues a marshaled message; it reports false (and evicts the
// client) if the queue is at its hard cap. One reference on msg passes
// to the writer goroutine on success and is released on failure — so a
// broadcast caller that retained per-subscriber is square either way.
// Never blocks; safe from any goroutine.
func (c *client) send(msg *wireMsg) bool {
	if c.dead.Load() {
		msg.release()
		return false
	}
	n := int64(len(msg.buf))
	select {
	case c.outCh <- msg:
		queued := c.queuedBytes.Add(n)
		c.s.sm.queuedBytes.Add(n)
		if c.dead.Load() {
			// Lost a race with teardown; see unqueueOne.
			c.unqueueOne()
			return false
		}
		c.s.sm.sendQueueDepth.Observe(int64(len(c.outCh)))
		if queued > c.flow.budget {
			c.overBudget(queued)
		}
		return true
	default:
		// Hard cap: outQueueDepth messages queued and the writer is not
		// draining. Instant eviction, no policy grace.
		msg.release()
		c.s.sm.queueOverflows.Inc()
		c.s.logf("aserver: client %v output queue overflow, evicting", c.conn.RemoteAddr())
		c.evict(closeReasonEvict, proto.ErrOverload)
		return false
	}
}

// overBudget runs the slow-client policy on an over-budget enqueue. Out
// of line so the common under-budget send never reads the clock.
func (c *client) overBudget(queued int64) {
	if c.flow.onQueue(queued, time.Now().UnixNano()) == flowEvict {
		c.s.logf("aserver: client %v over send budget (%d bytes) past its allowance, evicting",
			c.conn.RemoteAddr(), queued)
		c.evict(closeReasonEvict, proto.ErrOverload)
	}
}

// newRecordReplyMsg checks out a wire message for a record reply with
// room for n payload bytes and returns the message and its payload
// region. The record path hands the payload region to the device, which
// converts samples from the record ring straight into it (under the
// owning engine's lock), then seals the message with finishRecordReply.
func newRecordReplyMsg(n int) (m *wireMsg, payload []byte) {
	m = getMsg("record-reply")
	buf := msgBytes(m, proto.ReplyHeaderBytes+proto.Pad4(n))
	return m, buf[proto.ReplyHeaderBytes : proto.ReplyHeaderBytes+n]
}

// finishRecordReply seals and queues a record reply whose first n payload
// bytes the device has already converted in place: byte-swap for
// opposite-order sample data, truncate to the delivered length, zero the
// pad, stamp the header. The sample data is never staged anywhere but
// the wire message itself.
func finishRecordReply(c *client, a *ac, m *wireMsg, n int, now uint32, flags uint8, seq uint16) {
	buf := m.buf
	if flags&proto.SampleFlagBigEndian != 0 {
		sampleconv.SwapBytes(a.enc, buf[proto.ReplyHeaderBytes:proto.ReplyHeaderBytes+n])
	}
	total := proto.ReplyHeaderBytes + proto.Pad4(n)
	for i := proto.ReplyHeaderBytes + n; i < total; i++ {
		buf[i] = 0
	}
	m.buf = buf[:total]
	proto.PutReplyHeader(c.order, buf, &proto.Reply{Seq: seq, Time: now, Aux: uint32(n)}, n)
	// Record egress is counted here, the seal point every record reply
	// passes through (first-try, retried, and compressed paths alike).
	em := c.s.engineByDev[a.devIndex].m
	em.recBytes.Add(uint64(n))
	em.recChunk.Observe(int64(n))
	c.send(m)
}

// sendReply marshals and queues a reply for the request carrying seq.
func (c *client) sendReply(p *proto.Reply, seq uint16) {
	p.Seq = seq
	m := getMsg("reply")
	w := proto.Writer{Order: c.order, Buf: m.buf}
	p.Encode(&w)
	m.buf = w.Buf
	c.send(m)
}

// sendError marshals and queues a protocol error for the request
// carrying seq.
func (c *client) sendError(code uint8, badValue uint32, op uint8, seq uint16) {
	c.s.sm.clientErrors.Inc()
	e := proto.ErrorMsg{Code: code, Seq: seq, BadValue: badValue, MajorOp: op}
	m := getMsg("error")
	w := proto.Writer{Order: c.order, Buf: m.buf}
	e.Encode(&w)
	m.buf = w.Buf
	c.send(m)
}

// stageFlushBytes caps the staging buffer: a group staging more than
// this flushes mid-run, so one pooled message never grows without bound.
const stageFlushBytes = 4096

// stageMsg returns the staging message, checking one out lazily so a
// group whose replies all go direct (record replies, suppressed play
// acks) costs nothing here.
func (c *client) stageMsg() *wireMsg {
	if c.stage == nil {
		c.stage = getMsg("staged")
	}
	return c.stage
}

// stagedReply appends a reply to the staging buffer instead of queueing
// it as its own message; flushStage hands the whole batch to the writer
// as one message. Only fixed-header replies come through here — anything
// carrying Extra uses sendReply (after a flush, to keep reply order).
func (c *client) stagedReply(p *proto.Reply, seq uint16) {
	p.Seq = seq
	m := c.stageMsg()
	w := proto.Writer{Order: c.order, Buf: m.buf}
	p.Encode(&w)
	m.buf = w.Buf
	if len(m.buf) >= stageFlushBytes {
		c.flushStage()
	}
}

// stagedError is sendError's staging twin.
func (c *client) stagedError(code uint8, badValue uint32, op uint8, seq uint16) {
	c.s.sm.clientErrors.Inc()
	e := proto.ErrorMsg{Code: code, Seq: seq, BadValue: badValue, MajorOp: op}
	m := c.stageMsg()
	w := proto.Writer{Order: c.order, Buf: m.buf}
	e.Encode(&w)
	m.buf = w.Buf
	if len(m.buf) >= stageFlushBytes {
		c.flushStage()
	}
}

// flushStage queues the staged replies as one message: one pooled
// buffer, one writev iovec, at most one writer wakeup for the whole run.
// It goes through the ordinary send path, so the byte budget and
// eviction accounting see staged bytes exactly like any other reply.
func (c *client) flushStage() {
	m := c.stage
	if m == nil {
		return
	}
	c.stage = nil
	if len(m.buf) == 0 {
		m.release()
		return
	}
	c.s.sm.stagedBytes.Add(uint64(len(m.buf)))
	c.s.sm.stagedFlushes.Inc()
	c.send(m)
}

// sendEvent marshals and queues an event, stamped with the sequence
// number of the client's most recently dispatched request.
func (c *client) sendEvent(ev *proto.Event) {
	ev.Seq = uint16(c.seq.Load())
	m := getMsg("event")
	w := proto.Writer{Order: c.order, Buf: m.buf}
	ev.Encode(&w)
	m.buf = w.Buf
	c.send(m)
}
