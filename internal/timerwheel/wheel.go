// Package timerwheel implements a sharded hierarchical timer wheel: the
// periodic-update clockwork for a server with thousands of devices.
//
// The problem it replaces: one timer goroutine per audio device. At four
// devices that is idiomatic Go; at four thousand PBX lines it is four
// thousand goroutines waking independently, each paying its own
// time.Now(), timer re-arm, and scheduler round trip. The wheel inverts
// the structure: timers are passive entries owned by a small fixed set
// of shards, each shard is one goroutine that sleeps until its earliest
// deadline and fires every entry due at that tick in one batch, reading
// the clock once.
//
// Hierarchy: each shard keeps a ring of coarse slots (the wheel proper)
// covering a near-future horizon, plus an overflow heap for deadlines
// beyond it. Arming within the horizon is O(1) list insertion into the
// deadline's slot; far deadlines sit in the heap and are promoted into
// the ring as the cursor approaches — the classic two-level cascade.
// Entries in one slot share a deadline bucket and fire together, which
// is exactly the batching the update plane wants: every device due in
// the same granule is handed to the worker pool as one tick.
//
// Timers never fire early: a deadline is rounded *up* to the next slot
// boundary, so a timer fires at most one granularity late (plus tick
// lag under load, which the owner can observe via the overdue argument).
//
// Lock ordering: Arm/Stop take only the owning shard's lock and are
// safe to call while holding any caller-side lock; fire callbacks run
// on the shard goroutine with no wheel locks held, so a callback may
// acquire caller-side locks or re-arm freely, but must not block for
// long — park handoff to a worker pool is the intended shape.
package timerwheel

import (
	"runtime"
	"sync"
	"time"
)

// Config sizes a Wheel. Zero values select defaults.
type Config struct {
	// Shards is the number of independent wheel shards (one goroutine
	// each). Default: GOMAXPROCS/4, clamped to [1, 8].
	Shards int
	// Slots is the ring size per shard. With Granularity it sets the
	// horizon (Slots × Granularity) beyond which entries overflow to
	// the heap. Default 512.
	Slots int
	// Granularity is the slot width: deadlines are coalesced to this
	// quantum and fire at most one granule late. Default 1ms — fine
	// enough for the precise parked-request wake-ups the dispatcher
	// schedules, coarse enough that a thousand devices on the same
	// update cadence land in a handful of batches.
	Granularity time.Duration

	// OnBatch, if set, observes the size of every non-empty fire batch
	// (entries fired by one shard tick). Called on shard goroutines.
	OnBatch func(n int)

	// FireBatch, if set, replaces the per-timer fire loop: one shard tick
	// hands the whole due batch to this hook in one call, on the shard
	// goroutine, with no wheel locks held. The hook owns delivering each
	// entry — typically dispatching homogeneous timers (identified via
	// Timer.Payload) as one group and calling Timer.Fire for the rest.
	// The slice is shard-owned scratch: the hook must not retain it.
	FireBatch func(now time.Time, due []*Timer)
}

// A Timer is one schedulable entry. Create with Wheel.NewTimer, then
// Arm/Stop freely from any goroutine. The fire callback runs on the
// owning shard's goroutine.
type Timer struct {
	fire func(now time.Time, overdue time.Duration)
	sh   *shard

	// Payload is an opaque owner tag a FireBatch hook can use to sort due
	// entries into groups (the update scheduler stores the owning engine
	// here). Set it before the first Arm; the wheel never touches it.
	Payload any

	// Guarded by sh.mu.
	when    int64  // deadline, ns since wheel epoch
	dueWhen int64  // when as of collection into the due batch (see Lateness)
	slotNum int64  // absolute slot number while in the ring; -1 otherwise
	heapIdx int    // index in the overflow heap; -1 otherwise
	next    *Timer // ring-slot list links
	prev    *Timer
}

// Wheel is a set of shards sharing an epoch. Timers are assigned to
// shards by key at creation and never migrate.
type Wheel struct {
	epoch     time.Time
	granule   int64 // ns
	shards    []*shard
	done      chan struct{}
	wg        sync.WaitGroup
	onBatch   func(n int)
	fireBatch func(now time.Time, due []*Timer)
}

type shard struct {
	w *Wheel

	mu       sync.Mutex
	slots    []*Timer // slot index -> head of that slot's timer list
	cursor   int64    // last processed absolute slot number
	ringLen  int      // timers resident in the ring
	overflow []*Timer // min-heap on when, for deadlines past the horizon
	// nextWake is the absolute ns deadline the shard goroutine is
	// currently sleeping toward (maxInt64 = idle). Armers poke the
	// goroutine only when they beat it, so re-arms to later deadlines
	// cost one lock and no wakeup.
	nextWake int64

	wake chan struct{}
	due  []*Timer // scratch: collected under mu, fired outside it
}

const maxInt64 = int64(1<<63 - 1)

// New builds and starts a wheel.
func New(cfg Config) *Wheel {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0) / 4
		if cfg.Shards < 1 {
			cfg.Shards = 1
		}
		if cfg.Shards > 8 {
			cfg.Shards = 8
		}
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 512
	}
	if cfg.Granularity <= 0 {
		cfg.Granularity = time.Millisecond
	}
	w := &Wheel{
		epoch:     time.Now(),
		granule:   cfg.Granularity.Nanoseconds(),
		done:      make(chan struct{}),
		onBatch:   cfg.OnBatch,
		fireBatch: cfg.FireBatch,
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			w:        w,
			slots:    make([]*Timer, cfg.Slots),
			nextWake: maxInt64,
			wake:     make(chan struct{}, 1),
		}
		w.shards = append(w.shards, sh)
		w.wg.Add(1)
		go sh.run()
	}
	return w
}

// Shards reports the shard count (the wheel's goroutine inventory).
func (w *Wheel) Shards() int { return len(w.shards) }

// Stop terminates the shard goroutines. Armed timers are abandoned;
// no fire callback runs after Stop returns.
func (w *Wheel) Stop() {
	close(w.done)
	w.wg.Wait()
}

// NewTimer creates an unarmed timer on the shard selected by key
// (stable modulo assignment, so related timers can share or avoid a
// shard). fire runs on the shard goroutine each time the timer
// expires; overdue is how far past the deadline the tick ran.
func (w *Wheel) NewTimer(key int, fire func(now time.Time, overdue time.Duration)) *Timer {
	if key < 0 {
		key = -key
	}
	return &Timer{
		fire:    fire,
		sh:      w.shards[key%len(w.shards)],
		slotNum: -1,
		heapIdx: -1,
	}
}

// Arm schedules (or reschedules) the timer for when. An earlier
// deadline promotes the timer — the wheel wakes the shard if the new
// deadline beats the one it is sleeping toward; a later deadline just
// moves the entry. Arming an already-fired timer re-registers it.
func (t *Timer) Arm(when time.Time) {
	sh := t.sh
	ns := when.Sub(sh.w.epoch).Nanoseconds()
	sh.mu.Lock()
	sh.removeLocked(t)
	t.when = ns
	sh.insertLocked(t)
	poke := ns < sh.nextWake
	sh.mu.Unlock()
	if poke {
		select {
		case sh.wake <- struct{}{}:
		default:
		}
	}
}

// Lateness reports how far past the timer's armed deadline now is. It
// reads the deadline snapshot taken under the shard lock when the entry
// was collected into the due batch, so it is safe from a FireBatch hook
// even if the owner concurrently re-arms the timer (an addTaskLocked
// promotion racing the fire), and it reports the deadline this fire is
// actually for, not the re-armed one.
func (t *Timer) Lateness(now time.Time) time.Duration {
	return time.Duration(now.Sub(t.sh.w.epoch).Nanoseconds() - t.dueWhen)
}

// Fire invokes the timer's callback as the wheel would have, with the
// overdue argument derived from the armed deadline. A FireBatch hook
// calls this for due entries it does not handle as a group.
func (t *Timer) Fire(now time.Time) {
	t.fire(now, t.Lateness(now))
}

// Stop cancels the timer if armed. A concurrent fire that already
// collected the timer may still run; owners that care use their own
// state (the scheduler's dedupe flag) to discard stale fires.
func (t *Timer) Stop() {
	t.sh.mu.Lock()
	t.sh.removeLocked(t)
	t.sh.mu.Unlock()
}

// --- shard internals (all *Locked methods require sh.mu) ---

// insertLocked places t (with t.when set) into the ring if its slot is
// within the horizon, else into the overflow heap. Deadlines are
// rounded up to the next slot boundary so timers never fire early.
func (sh *shard) insertLocked(t *Timer) {
	g := sh.w.granule
	sn := (t.when + g - 1) / g
	if sn <= sh.cursor {
		sn = sh.cursor + 1 // already due: next tick fires it
	}
	if sn-sh.cursor < int64(len(sh.slots)) {
		idx := sn % int64(len(sh.slots))
		t.slotNum = sn
		t.prev = nil
		t.next = sh.slots[idx]
		if t.next != nil {
			t.next.prev = t
		}
		sh.slots[idx] = t
		sh.ringLen++
	} else {
		sh.heapPushLocked(t)
	}
}

// removeLocked detaches t from the ring or heap if armed; idempotent.
func (sh *shard) removeLocked(t *Timer) {
	if t.slotNum >= 0 {
		if t.prev != nil {
			t.prev.next = t.next
		} else {
			sh.slots[t.slotNum%int64(len(sh.slots))] = t.next
		}
		if t.next != nil {
			t.next.prev = t.prev
		}
		t.next, t.prev = nil, nil
		t.slotNum = -1
		sh.ringLen--
	} else if t.heapIdx >= 0 {
		sh.heapRemoveLocked(t.heapIdx)
	}
}

// advanceLocked moves the cursor to cover now, collecting every due
// timer into sh.due (ring slots in deadline order, then newly due
// overflow entries) and cascading overflow entries that entered the
// horizon into the ring.
func (sh *shard) advanceLocked(now int64) {
	target := now / sh.w.granule
	for sh.cursor < target {
		sh.cursor++
		if sh.ringLen == 0 && len(sh.overflow) == 0 {
			sh.cursor = target // nothing armed: skip ahead
			break
		}
		idx := sh.cursor % int64(len(sh.slots))
		for t := sh.slots[idx]; t != nil; {
			next := t.next
			// Invariant: a ring slot holds exactly one absolute slot
			// number (inserts are bounded to the horizon), so the whole
			// list is due.
			t.next, t.prev = nil, nil
			t.slotNum = -1
			sh.ringLen--
			t.dueWhen = t.when
			sh.due = append(sh.due, t)
			t = next
		}
		sh.slots[idx] = nil
	}
	// Cascade: overflow entries now inside the horizon drop into the
	// ring; entries already due join the batch directly.
	horizon := sh.cursor + int64(len(sh.slots))
	for len(sh.overflow) > 0 {
		g := sh.w.granule
		top := sh.overflow[0]
		sn := (top.when + g - 1) / g
		if sn >= horizon {
			break
		}
		sh.heapRemoveLocked(0)
		if sn <= sh.cursor {
			top.dueWhen = top.when
			sh.due = append(sh.due, top)
		} else {
			sh.insertLocked(top)
		}
	}
}

// nextDeadlineLocked returns the earliest armed deadline in ns, or
// maxInt64 when the shard is idle.
func (sh *shard) nextDeadlineLocked() int64 {
	best := maxInt64
	if len(sh.overflow) > 0 {
		best = sh.overflow[0].when
	}
	if sh.ringLen > 0 {
		n := int64(len(sh.slots))
		for sn := sh.cursor + 1; sn <= sh.cursor+n; sn++ {
			if t := sh.slots[sn%n]; t != nil {
				// Slot deadline = slot boundary; entries in it were
				// rounded up to sn, so the slot's fire time bounds them.
				if d := sn * sh.w.granule; d < best {
					best = d
				}
				break
			}
		}
	}
	return best
}

// run is the shard goroutine: sleep to the earliest deadline, fire the
// due batch, repeat. One time.Now() read per tick.
func (sh *shard) run() {
	defer sh.w.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		now := time.Since(sh.w.epoch).Nanoseconds()
		sh.mu.Lock()
		sh.advanceLocked(now)
		next := sh.nextDeadlineLocked()
		sh.nextWake = next
		due := sh.due
		sh.mu.Unlock()

		if len(due) > 0 {
			if ob := sh.w.onBatch; ob != nil {
				ob(len(due))
			}
			nowT := sh.w.epoch.Add(time.Duration(now))
			if fb := sh.w.fireBatch; fb != nil {
				fb(nowT, due)
				for i := range due {
					due[i] = nil
				}
			} else {
				for i, t := range due {
					t.fire(nowT, time.Duration(now-t.dueWhen))
					due[i] = nil
				}
			}
			sh.due = due[:0]
			// Firing may have re-armed into the past; loop to collect.
			continue
		}

		d := time.Hour
		if next != maxInt64 {
			d = time.Duration(next - now)
			if d < 0 {
				d = 0
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(d)
		select {
		case <-timer.C:
		case <-sh.wake:
		case <-sh.w.done:
			return
		}
	}
}

// --- overflow heap (hand-rolled to keep Arm allocation-free) ---

func (sh *shard) heapPushLocked(t *Timer) {
	sh.overflow = append(sh.overflow, t)
	i := len(sh.overflow) - 1
	t.heapIdx = i
	sh.heapUpLocked(i)
}

func (sh *shard) heapRemoveLocked(i int) {
	h := sh.overflow
	n := len(h) - 1
	h[i].heapIdx = -1
	if i != n {
		h[i] = h[n]
		h[i].heapIdx = i
	}
	h[n] = nil
	sh.overflow = h[:n]
	if i < n {
		sh.heapDownLocked(i)
		sh.heapUpLocked(i)
	}
}

func (sh *shard) heapUpLocked(i int) {
	h := sh.overflow
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].when <= h[i].when {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		h[parent].heapIdx = parent
		h[i].heapIdx = i
		i = parent
	}
}

func (sh *shard) heapDownLocked(i int) {
	h := sh.overflow
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].when < h[c].when {
			c++
		}
		if h[i].when <= h[c].when {
			break
		}
		h[i], h[c] = h[c], h[i]
		h[i].heapIdx = i
		h[c].heapIdx = c
		i = c
	}
}
