package lineserver

import (
	"log"
	"net"
	"sync"
	"time"

	"audiofile/internal/atime"
	"audiofile/internal/sampleconv"
)

// Backend is the workstation side of the Als server (§7.4.3): a
// core.Backend that drives a LineServer over its private UDP protocol.
// Client requests satisfied by the AudioFile server's own buffers never
// touch the network; only update-region traffic does. Play and record
// packets are never retried ("by then, it is probably too late anyway");
// register accesses are.
//
// The transport is hardened against the faults that define UDP: every
// reply is sequence-validated (stale replies to timed-out requests and
// duplicated datagrams are counted and discarded, never adopted), the
// device-time estimate is monotonic under jittered replies, and a
// detect/decide/act health loop (health.go) resynchronizes automatically
// when the box disappears and comes back.
type Backend struct {
	mu sync.Mutex

	conn net.Conn // connected UDP socket
	rate int
	seq  uint32

	timeout time.Duration
	err     error // first transport setup failure (see noteErr)

	// Device time estimation: "the server generates an estimate of the
	// LineServer time from the time stamp of the last LineServer packet
	// and the local server time."
	lastTime    atime.ATime
	lastWhen    time.Time
	extrapolate bool // off for manual-clock tests

	// Monotonicity clamp for Time: jittered and reordered replies must
	// never make the estimate run backwards. A detected clock slip or a
	// completed resync clears monotonicValid, letting the estimate step
	// to the box's new time base (e.g. after a reboot).
	lastReturned   atime.ATime
	monotonicValid bool

	// Reply validation: seenReplies is a ring of recently received reply
	// sequence numbers, so a duplicated datagram — of the live reply or
	// of a stale one — is classified as a duplicate rather than adopted
	// or double-counted as stale.
	seenReplies [16]uint32
	seenCount   int

	recv []byte

	// Self-healing (health.go).
	health         backendHealth
	failThreshold  int
	resyncMaxTries int
	resyncBackoff  time.Duration
	slipThreshold  int

	healCh    chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// BackendOption configures a Backend.
type BackendOption func(*Backend)

// WithTimeout sets the per-packet reply timeout.
func WithTimeout(d time.Duration) BackendOption {
	return func(b *Backend) { b.timeout = d }
}

// WithoutExtrapolation disables wall-clock time extrapolation; every Time
// call pings the box. Manual-clock tests use this for determinism.
func WithoutExtrapolation() BackendOption {
	return func(b *Backend) { b.extrapolate = false }
}

// WithHealthTuning overrides the self-healing knobs: failThreshold
// consecutive round-trip failures escalate to a resync of up to
// attempts tries with backoff between them (doubling, capped). Zero
// values keep the defaults; chaos tests use tiny ones.
func WithHealthTuning(failThreshold, attempts int, backoff time.Duration) BackendOption {
	return func(b *Backend) {
		if failThreshold > 0 {
			b.failThreshold = failThreshold
		}
		if attempts > 0 {
			b.resyncMaxTries = attempts
		}
		if backoff > 0 {
			b.resyncBackoff = backoff
		}
	}
}

// WithSlipThreshold sets the clock-slip detection threshold in frames:
// an accepted reply whose timestamp deviates from the extrapolated
// estimate by more than this counts as a slip (§8.3 generalized).
// Ignored without extrapolation. 0 keeps the default of half a second.
func WithSlipThreshold(frames int) BackendOption {
	return func(b *Backend) {
		if frames > 0 {
			b.slipThreshold = frames
		}
	}
}

// Dial connects to a LineServer at a UDP address.
func Dial(addr string, rate int, opts ...BackendOption) (*Backend, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	b := &Backend{
		conn:           conn,
		rate:           rate,
		timeout:        100 * time.Millisecond,
		extrapolate:    true,
		recv:           make([]byte, HeaderBytes+MaxDataBytes+64),
		failThreshold:  defaultFailThreshold,
		resyncMaxTries: defaultResyncAttempts,
		resyncBackoff:  defaultResyncBackoff,
		healCh:         make(chan struct{}, 1),
		done:           make(chan struct{}),
	}
	for _, o := range opts {
		o(b)
	}
	if b.slipThreshold == 0 {
		b.slipThreshold = rate / 2
	}
	// Initial time sync.
	if rep := b.roundTrip(&Packet{Fn: FnLoopback}, 3); rep != nil {
		b.lastTime = atime.ATime(rep.Time)
		b.lastWhen = time.Now()
	}
	b.wg.Add(1)
	go b.healer()
	return b, nil
}

// Close releases the socket and joins the healer. Safe to call more
// than once; operations after Close fail fast on the closed socket.
func (b *Backend) Close() {
	b.closeOnce.Do(func() {
		close(b.done)
		b.conn.Close()
	})
	b.wg.Wait()
}

// rememberReply records a reply sequence number in the seen ring.
// Must be called with b.mu held.
func (b *Backend) rememberReply(seq uint32) {
	b.seenReplies[b.seenCount%len(b.seenReplies)] = seq
	b.seenCount++
}

// replySeen reports whether seq was received recently. Must be called
// with b.mu held.
func (b *Backend) replySeen(seq uint32) bool {
	n := b.seenCount
	if n > len(b.seenReplies) {
		n = len(b.seenReplies)
	}
	for i := 0; i < n; i++ {
		if b.seenReplies[i] == seq {
			return true
		}
	}
	return false
}

// adoptTime accepts a reply's timestamp as the new estimation base,
// first checking it against the extrapolated estimate for a clock slip
// (detect); a slip releases the monotonicity clamp so Time may step to
// the box's new base (act). Must be called with b.mu held.
func (b *Backend) adoptTime(rep *Packet) {
	now := time.Now()
	if b.extrapolate && !b.lastWhen.IsZero() {
		expected := atime.Add(b.lastTime, int(now.Sub(b.lastWhen).Seconds()*float64(b.rate)))
		if d := atime.Sub(atime.ATime(rep.Time), expected); d > int32(b.slipThreshold) || d < -int32(b.slipThreshold) {
			b.health.slips.Add(1)
			b.monotonicValid = false
		}
	}
	b.lastTime = atime.ATime(rep.Time)
	b.lastWhen = now
}

// roundTrip sends a request and waits for its reply, trying up to tries
// times. It returns nil when every attempt timed out. Every parseable
// reply datagram is classified exactly once — accepted, stale, or
// duplicate — so the books satisfy Replies == Accepted + Stale +
// Duplicate; only an accepted reply (live sequence number and matching
// function code) may update the time estimate. Must be called with
// b.mu held (or before concurrent use).
func (b *Backend) roundTrip(req *Packet, tries int) *Packet {
	h := &b.health
	for attempt := 0; attempt < tries; attempt++ {
		b.seq++
		req.Seq = b.seq
		// Arm the reply deadline before sending: with no deadline a lost
		// reply would block the read below forever, and arming after the
		// Write leaves a window where the reply can race the deadline.
		if err := b.conn.SetReadDeadline(time.Now().Add(b.timeout)); err != nil {
			b.noteErr(err)
			b.noteFailure()
			return nil
		}
		if _, err := b.conn.Write(req.Marshal()); err != nil {
			b.noteErr(err)
			b.noteFailure()
			return nil
		}
		h.requests.Add(1)
		for {
			n, err := b.conn.Read(b.recv)
			if err != nil {
				break // timeout: retry or give up
			}
			rep, err := Parse(b.recv[:n])
			if err != nil {
				h.garbage.Add(1)
				continue
			}
			// The aggregate increments before the classification so the
			// one-sided law Replies >= Accepted+Stale+Duplicate holds in
			// every live snapshot (Stats reads the classes first).
			h.replies.Add(1)
			switch {
			case rep.Seq == req.Seq && rep.Fn == req.Fn:
				h.accepted.Add(1)
				b.rememberReply(rep.Seq)
				b.adoptTime(rep)
				b.noteSuccess()
				return rep
			case b.replySeen(rep.Seq):
				// A duplicated datagram: a copy of a reply we already
				// classified (accepted or stale). Never adopted.
				h.duplicate.Add(1)
			default:
				// A straggler answering an earlier, timed-out request (or
				// a live-sequence reply with the wrong function code).
				// Its payload may be valid for that old request, but its
				// timestamp is old news: discarded, never adopted.
				h.stale.Add(1)
				b.rememberReply(rep.Seq)
			}
		}
	}
	b.noteFailure()
	return nil
}

// noteErr records the first transport failure and logs it once. The
// backend then degrades to its packet-loss behavior (silence, stale
// time estimates) instead of hanging or log-spamming: the box being
// unreachable is normal operation for a UDP peripheral, but a socket
// that cannot even arm a deadline is worth one line.
func (b *Backend) noteErr(err error) {
	if b.err == nil {
		b.err = err
		log.Printf("lineserver: transport error (degrading to loss behavior): %v", err)
	}
}

// Err reports the first transport failure seen by roundTrip, if any.
func (b *Backend) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// Time implements core.Backend: the estimated LineServer device time.
// The estimate is monotonic: stragglers, duplicated replies, and
// jittered extrapolation can never make it run backwards. Only a
// detected clock slip or a completed resync (the box legitimately has a
// new time base) lets it step.
func (b *Backend) Time() atime.ATime {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.timeEstimateLocked()
	if b.monotonicValid && atime.Before(t, b.lastReturned) {
		return b.lastReturned
	}
	b.lastReturned = t
	b.monotonicValid = true
	return t
}

// timeEstimateLocked is the raw estimate: extrapolate from the last
// accepted reply when fresh, otherwise ping the box, otherwise fall
// back to the stale base.
func (b *Backend) timeEstimateLocked() atime.ATime {
	if b.extrapolate {
		age := time.Since(b.lastWhen)
		if age < 250*time.Millisecond {
			return atime.Add(b.lastTime, int(age.Seconds()*float64(b.rate)))
		}
	}
	// Stale (or extrapolation disabled): ping the box.
	if rep := b.roundTrip(&Packet{Fn: FnLoopback}, 2); rep != nil {
		return b.lastTime
	}
	// Unreachable: fall back to the stale estimate.
	if b.extrapolate {
		return atime.Add(b.lastTime, int(time.Since(b.lastWhen).Seconds()*float64(b.rate)))
	}
	return b.lastTime
}

// WritePlay implements core.Backend: push samples into the box's play
// buffer, one MTU-sized packet at a time, no retries.
func (b *Backend) WritePlay(t atime.ATime, data []byte) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	written := 0
	for len(data) > 0 {
		n := len(data)
		if n > MaxDataBytes {
			n = MaxDataBytes
		}
		// One try only: the reply carries just the time, and a lost play
		// packet is not worth retrying.
		if b.roundTrip(&Packet{Fn: FnPlay, Time: uint32(t), Data: data[:n]}, 1) == nil {
			// Unacknowledged: the packet (or its ack) is gone. The box may
			// still have it, but for gap accounting we assume the worst.
			b.health.playLostBytes.Add(uint64(n))
		}
		written += n
		t = atime.Add(t, n)
		data = data[n:]
	}
	return written
}

// ReadRecord implements core.Backend: pull captured samples from the box.
func (b *Backend) ReadRecord(t atime.ATime, buf []byte) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	got := 0
	for got < len(buf) {
		n := len(buf) - got
		if n > MaxDataBytes {
			n = MaxDataBytes
		}
		rep := b.roundTrip(&Packet{Fn: FnRecord, Time: uint32(t), Param: uint32(n)}, 1)
		// A lost reply delivers silence for this stretch, with no retry; a
		// short one (truncated in transit) silence-fills its tail rather
		// than leaking whatever the caller's buffer held.
		c := 0
		if rep != nil {
			c = copy(buf[got:got+n], rep.Data)
		}
		if c < n {
			sampleconv.Fill(buf[got+c:got+n], 0xFF)
			b.health.recSilenceBytes.Add(uint64(n - c))
		}
		got += n
		t = atime.Add(t, n)
	}
	return got
}

// HWFrames implements core.Backend.
func (b *Backend) HWFrames() int { return FirmwareFrames }

// ReadReg reads a CODEC register, with retries.
func (b *Backend) ReadReg(reg uint32) (uint32, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rep := b.roundTrip(&Packet{Fn: FnReadReg, Param: reg}, 3)
	if rep == nil || len(rep.Data) < 4 {
		return 0, false
	}
	return uint32(rep.Data[0])<<24 | uint32(rep.Data[1])<<16 |
		uint32(rep.Data[2])<<8 | uint32(rep.Data[3]), true
}

// WriteReg writes a CODEC register, with retries.
func (b *Backend) WriteReg(reg, val uint32) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	data := []byte{byte(val >> 24), byte(val >> 16), byte(val >> 8), byte(val)}
	return b.roundTrip(&Packet{Fn: FnWriteReg, Param: reg, Data: data}, 3) != nil
}

// Reset resets the box.
func (b *Backend) Reset() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.roundTrip(&Packet{Fn: FnReset}, 3) != nil
}

// Loopback round-trips a payload (for testing and time sync).
func (b *Backend) Loopback(data []byte) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rep := b.roundTrip(&Packet{Fn: FnLoopback, Data: data}, 3)
	if rep == nil {
		return nil, false
	}
	return rep.Data, true
}
