// Lock-free mailbox for the host backend.
//
// Each (source, tag) mailbox is a bounded Vyukov-style ring buffer — multi-
// producer because several sender goroutines (and any-source aggregation)
// can target one box, single-consumer because a mailbox belongs to exactly
// one receiving rank. The common case — deliver, poll, drain — touches only
// atomics: no mutex, no cond, no channel operation. Two slow paths preserve
// the old mutex mailbox's semantics:
//
//   - Overflow. The protocol assumes unbounded mailboxes (queue Window=0
//     means any number of batches may be in flight), so a full ring must not
//     block or drop. Producers that find the ring full append to a small
//     mutex-guarded overflow list and set ovSet; while ovSet is up, every
//     producer spills, so ring entries never overtake older overflow
//     entries. The consumer folds overflow back in — after one more ring
//     drain under the same lock, which orders any ring entries published
//     before a spill ahead of the spilled ones — and clears the flag.
//
//   - Parking. A process waiting for messages — blocking Recv on one box,
//     or Proc.Wait on a set of boxes — spins through a bounded budget of
//     polls (yielding the processor between attempts), then parks on its
//     own 1-token wake channel. Each box it waits on records it as the
//     consumer; producers notify only when they observe that consumer
//     armed, so a busy consumer costs senders two atomic loads, not a
//     futex wake. The platform's down channel, closed on failure, unparks
//     every blocked process so a dead peer cannot strand the rest.
package host

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dsmtx/internal/platform"
	"dsmtx/internal/sim"
	"dsmtx/internal/trace"
)

const (
	// ringBits sizes the lock-free buffer: 2^8 = 256 messages per mailbox
	// before producers spill to the overflow list. Queue batches are capped
	// well below this, so spills happen only under extreme receiver lag.
	ringBits = 8
	ringSize = 1 << ringBits
	ringMask = ringSize - 1

	// spinBudget is how many empty polls a wait tolerates before parking.
	// Each iteration yields the processor, so the budget bounds scheduler
	// pressure, not burned cycles.
	spinBudget = 64
)

// cell is one ring slot. seq is the Vyukov sequence: slot i%ringSize is
// writable for ticket i when seq == i, readable when seq == i+1, and free
// for the next lap once the consumer stores i+ringSize.
type cell struct {
	seq atomic.Uint64
	msg platform.Message
}

// mailbox is one (source, tag) receive queue.
type mailbox struct {
	e   *endpoint
	tag int // the box's message tag (delivery telemetry attribution)
	// auto marks a box created by delivery before any receiver registered
	// it; any-source registration may fold such boxes in (see boxLocked).
	auto bool

	head  atomic.Uint64 // next ticket to consume; written only by the consumer
	tail  atomic.Uint64 // next ticket to produce; CAS-claimed by producers
	cells [ringSize]cell

	ovMu     sync.Mutex
	ovSet    atomic.Bool
	overflow []platform.Message

	// consumer is the process that last waited on this box; enqueue wakes
	// it if it is parked.
	consumer atomic.Pointer[proc]
}

func newMailbox(e *endpoint, tag int, auto bool) *mailbox {
	b := &mailbox{e: e, tag: tag, auto: auto}
	for i := range b.cells {
		b.cells[i].seq.Store(uint64(i))
	}
	return b
}

// enqueue delivers one message. It never blocks: a full ring spills to the
// overflow list. Safe for any number of concurrent producers.
func (b *mailbox) enqueue(msg platform.Message) {
	tel := b.e.h.tel
	if b.ovSet.Load() {
		// Once one producer has spilled, all producers spill until the
		// consumer drains the list; otherwise a fresh ring entry could be
		// consumed ahead of an older overflow entry from the same sender.
		b.spill(msg)
		return
	}
	pos := b.tail.Load()
	for {
		c := &b.cells[pos&ringMask]
		seq := c.seq.Load()
		switch {
		case seq == pos:
			if b.tail.CompareAndSwap(pos, pos+1) {
				c.msg = msg
				c.seq.Store(pos + 1)
				if tel != nil {
					tel.cEnq.Inc()
					if d := int64(pos+1) - int64(b.head.Load()); d > 0 {
						tel.gDepth.Set(d)
					}
				}
				b.notify()
				return
			}
			if tel != nil {
				tel.cCAS.Inc()
			}
			pos = b.tail.Load()
		case seq < pos:
			// The consumer is a full lap behind this ticket: ring full.
			b.spill(msg)
			return
		default:
			// Another producer advanced tail past us; retry at the front.
			if tel != nil {
				tel.cCAS.Inc()
			}
			pos = b.tail.Load()
		}
	}
}

func (b *mailbox) spill(msg platform.Message) {
	b.ovMu.Lock()
	b.overflow = append(b.overflow, msg)
	depth := len(b.overflow)
	b.ovSet.Store(true)
	b.ovMu.Unlock()
	if tel := b.e.h.tel; tel != nil {
		tel.cSpill.Inc()
		b.e.del.spills.Add(1)
		tel.tr.Instant(trace.InstRingSpill, b.e.rank, 0, int64(b.tag), int64(depth))
	}
	b.notify()
}

// notify wakes a parked consumer. While the consumer is running (the common
// case) this is two atomic loads.
func (b *mailbox) notify() {
	p := b.consumer.Load()
	if p != nil && p.armed.Load() && p.armed.CompareAndSwap(true, false) {
		if tel := b.e.h.tel; tel != nil {
			tel.cWake.Inc()
		}
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

// pending reports whether a message is ready for the consumer: the head
// ring slot is published, or the overflow list is non-empty.
func (b *mailbox) pending() bool {
	pos := b.head.Load()
	return b.cells[pos&ringMask].seq.Load() == pos+1 || b.ovSet.Load()
}

// tryDequeue pops the oldest available message. Single-consumer only.
func (b *mailbox) tryDequeue() (platform.Message, bool) {
	pos := b.head.Load()
	c := &b.cells[pos&ringMask]
	if c.seq.Load() == pos+1 {
		msg := c.msg
		c.msg = platform.Message{}
		c.seq.Store(pos + ringSize)
		b.head.Store(pos + 1)
		if tel := b.e.h.tel; tel != nil {
			tel.cDeq.Inc()
		}
		return msg, true
	}
	if b.ovSet.Load() {
		return b.unspill()
	}
	return platform.Message{}, false
}

// Depth reports the queued backlog: ring occupancy plus any overflow. Exact
// for the single consumer between its own dequeues; an approximation while
// producers race it. Core's page servers poll it for the per-shard queue
// depth gauge.
func (b *mailbox) Depth() int {
	d := int(int64(b.tail.Load()) - int64(b.head.Load()))
	if d < 0 {
		d = 0
	}
	if b.ovSet.Load() {
		b.ovMu.Lock()
		d += len(b.overflow)
		b.ovMu.Unlock()
	}
	return d
}

// unspill consumes from the overflow list. Acquiring ovMu synchronizes with
// every producer that spilled, which makes their earlier ring publications
// visible — so one more ring check under the lock keeps per-producer FIFO:
// a producer's ring entries are always consumed before its spilled ones.
func (b *mailbox) unspill() (platform.Message, bool) {
	tel := b.e.h.tel
	b.ovMu.Lock()
	pos := b.head.Load()
	c := &b.cells[pos&ringMask]
	if c.seq.Load() == pos+1 {
		msg := c.msg
		c.msg = platform.Message{}
		c.seq.Store(pos + ringSize)
		b.head.Store(pos + 1)
		b.ovMu.Unlock()
		if tel != nil {
			tel.cDeq.Inc()
		}
		return msg, true
	}
	if len(b.overflow) == 0 {
		b.ovSet.Store(false)
		b.ovMu.Unlock()
		return platform.Message{}, false
	}
	msg := b.overflow[0]
	b.overflow[0] = platform.Message{}
	b.overflow = b.overflow[1:]
	if len(b.overflow) == 0 {
		b.overflow = nil
		b.ovSet.Store(false)
	}
	b.ovMu.Unlock()
	if tel != nil {
		tel.cUnspill.Inc()
		tel.cDeq.Inc()
	}
	return msg, true
}

// Recv dequeues a message, parking its process until one arrives (see
// park). The wall time past the first empty poll is the process's blocked
// time. It unwinds with the kill sentinel if the platform has failed, so a
// dead peer cannot leave this process parked forever.
func (b *mailbox) Recv(p platform.Proc) (platform.Message, bool) {
	if msg, ok := b.tryDequeue(); ok {
		return msg, true
	}
	hp := p.(*proc)
	t0 := time.Now()
	boxes := [1]platform.Mailbox{b}
	for {
		hp.park(boxes[:])
		if msg, ok := b.tryDequeue(); ok {
			hp.blocked += platform.Duration(time.Since(t0))
			return msg, true
		}
	}
}

// park returns once one of boxes has a message pending. It polls through
// the spin budget, yielding between polls, then parks on the process's
// wake token. It unwinds with the kill sentinel if the platform has
// failed.
func (p *proc) park(boxes []platform.Mailbox) {
	h := p.h
	tel := h.tel
	for i := 0; i < spinBudget; i++ {
		if anyPending(boxes) {
			if tel != nil {
				tel.cSpinHit.Inc()
			}
			return
		}
		if h.failed.Load() {
			panic(killSentinel{})
		}
		runtime.Gosched()
	}
	for _, b := range boxes {
		b.(*mailbox).consumer.Store(p)
	}
	first := boxes[0].(*mailbox)
	parked := false
	var parkT0 time.Time
	var spanT0 sim.Time
	for {
		// Arm, then re-check: a producer that enqueued after our last poll
		// either sees armed and sends the token, or published its message
		// before our store — this final check finds it. Either way no
		// wakeup is lost. (Registering as consumer came first, so a
		// producer that saw no consumer published before the re-check.)
		p.armed.Store(true)
		if anyPending(boxes) {
			p.armed.Store(false)
			select {
			case <-p.wake: // drop a token raced in by a producer
			default:
			}
			if parked {
				first.endPark(parkT0, spanT0)
			}
			return
		}
		if h.failed.Load() {
			p.armed.Store(false)
			panic(killSentinel{})
		}
		if tel != nil && !parked {
			parked = true
			tel.cPark.Inc()
			first.e.del.parks.Add(1)
			parkT0 = time.Now()
			spanT0 = tel.tr.Now()
		}
		select {
		case <-p.wake:
		case <-h.down:
		}
	}
}

func anyPending(boxes []platform.Mailbox) bool {
	for _, b := range boxes {
		if b.(*mailbox).pending() {
			return true
		}
	}
	return false
}

// endPark closes out one park episode: wall time spent parked feeds the
// park-latency histogram, the endpoint's stall attribution, and (when spans
// are on) a recv.park span on the rank's track.
func (b *mailbox) endPark(parkT0 time.Time, spanT0 sim.Time) {
	tel := b.e.h.tel
	d := time.Since(parkT0).Nanoseconds()
	tel.hParkNs.Observe(d)
	b.e.del.parkNs.Add(d)
	tel.tr.Span(trace.SpanRecvPark, b.e.rank, spanT0, 0, int64(b.tag), 0)
}

// TryRecv dequeues a pending message without blocking.
func (b *mailbox) TryRecv() (platform.Message, bool) {
	return b.tryDequeue()
}

// TryRecvBatch appends every immediately available message to into and
// returns the extended slice. One call drains the whole ring (and any
// overflow), replacing a poll-per-message loop on the consumer side.
func (b *mailbox) TryRecvBatch(into []platform.Message) []platform.Message {
	for {
		msg, ok := b.tryDequeue()
		if !ok {
			return into
		}
		into = append(into, msg)
	}
}

// drainInto moves every queued message into dst in order. The caller must
// hold the endpoint write lock, which excludes concurrent producers; auto
// boxes never had a consumer, so the single-consumer rule holds too.
func (b *mailbox) drainInto(dst *mailbox) {
	for {
		msg, ok := b.tryDequeue()
		if !ok {
			return
		}
		dst.enqueue(msg)
	}
}
