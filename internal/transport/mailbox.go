package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"argus/internal/obs"
)

// DefaultMailbox is the inbound-frame bound used when a transport is built
// without an explicit size.
const DefaultMailbox = 1024

// mailboxBatch is how many frames the actor loop delivers before re-checking
// for control work. Without the cap, a flooded endpoint that grabbed its
// whole backlog (up to the mailbox bound) would sit on freshly-armed timers
// and Do closures for the entire drain; with it, control latency is bounded
// by one batch regardless of backlog depth, while the common case — a few
// frames per wake — still drains in a single lock round-trip.
const mailboxBatch = 64

// inbound is one delivered frame awaiting the handler.
type inbound struct {
	from    Addr
	payload []byte
}

// mailbox serializes everything that touches engine state onto one actor
// goroutine: inbound frames (bounded, shed under overload) and control work
// — timers and injected closures — which is never shed. Control drains
// before frames on every wake, so a flooded node still runs its
// session-expiry timers.
type mailbox struct {
	mu     sync.Mutex
	ctrl   []func()
	msgs   []inbound
	spare  []inbound // drained frame buffer recycled back under mu
	limit  int
	wake   chan struct{}
	closed bool

	drops     atomic.Int64
	delivered atomic.Int64
	dropC     *obs.Counter // optional, set before Bind
	deliverC  *obs.Counter

	loopDone chan struct{}
}

func newMailbox(limit int) *mailbox {
	if limit <= 0 {
		limit = DefaultMailbox
	}
	return &mailbox{
		limit:    limit,
		wake:     make(chan struct{}, 1),
		loopDone: make(chan struct{}),
	}
}

// instrument resolves the backpressure counters for one endpoint.
func (mb *mailbox) instrument(reg *obs.Registry, addr Addr) {
	if reg == nil {
		return
	}
	mb.dropC = reg.Counter(obs.MTransportMailboxDrops,
		"Inbound frames shed because an endpoint's bounded mailbox was full.",
		obs.L("addr", string(addr)))
	mb.deliverC = reg.Counter(obs.MTransportDeliveries,
		"Inbound frames handed to an endpoint's handler.",
		obs.L("addr", string(addr)))
}

func (mb *mailbox) signal() {
	select {
	case mb.wake <- struct{}{}:
	default:
	}
}

// enqueueCtrl queues control work (timer fire, Do closure). Control is
// unbounded: dropping a retransmission or GC timer would wedge the protocol
// in a way no real network can.
func (mb *mailbox) enqueueCtrl(fn func()) {
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		return
	}
	mb.ctrl = append(mb.ctrl, fn)
	mb.mu.Unlock()
	mb.signal()
}

// enqueueMsg queues an inbound frame, shedding it with a counted drop when
// the mailbox is at its bound.
func (mb *mailbox) enqueueMsg(from Addr, payload []byte) {
	mb.mu.Lock()
	if mb.closed || len(mb.msgs) >= mb.limit {
		closed := mb.closed
		mb.mu.Unlock()
		if !closed {
			mb.drops.Add(1)
			if mb.dropC != nil {
				mb.dropC.Inc()
			}
		}
		return
	}
	mb.msgs = append(mb.msgs, inbound{from: from, payload: payload})
	mb.mu.Unlock()
	mb.signal()
}

// close stops the loop once the queues drain. Idempotent.
func (mb *mailbox) close() {
	mb.mu.Lock()
	already := mb.closed
	mb.closed = true
	mb.mu.Unlock()
	if !already {
		mb.signal()
	}
}

// run is the actor loop: drain control, then frames in batches of
// mailboxBatch — re-checking for control work between batches, so the
// ctrl-before-frame contract holds against an arbitrarily deep frame backlog
// — then sleep until woken. Both queues are double-buffered: the drained
// slice is recycled as the producers' next append target, so steady-state
// delivery, timer fires and Do closures allocate no queue memory. run is the
// only goroutine that ever calls h, preserving the engines' single-writer
// contract.
func (mb *mailbox) run(h Handler) {
	defer close(mb.loopDone)
	// The control buffer drained last waits here, with the loop, until the
	// next take installs it under mu: it needs no field and no lock of its own.
	var ctrlSpare []func()
	takeCtrl := func() []func() { // caller holds mu
		ctrl := mb.ctrl
		mb.ctrl, ctrlSpare = ctrlSpare, nil
		return ctrl
	}
	runCtrl := func(ctrl []func()) {
		for i, fn := range ctrl {
			fn()
			ctrl[i] = nil // do not pin the closure until the buffer's next fill
		}
		if cap(ctrl) > cap(ctrlSpare) {
			ctrlSpare = ctrl[:0]
		}
	}
	for {
		mb.mu.Lock()
		ctrl := takeCtrl()
		msgs := mb.msgs
		mb.msgs = mb.spare[:0]
		mb.spare = nil
		closed := mb.closed
		mb.mu.Unlock()

		runCtrl(ctrl)
		for rest := msgs; len(rest) > 0; {
			n := len(rest)
			if n > mailboxBatch {
				n = mailboxBatch
			}
			mb.delivered.Add(int64(n))
			if mb.deliverC != nil {
				mb.deliverC.Add(int64(n))
			}
			for _, m := range rest[:n] {
				h.Handle(m.from, m.payload)
			}
			rest = rest[n:]
			if len(rest) == 0 {
				break
			}
			// Control enqueued while the batch ran (timer fires, Do
			// closures from the handlers themselves) jumps the remaining
			// backlog, exactly as if the loop had gone back to sleep.
			mb.mu.Lock()
			mid := takeCtrl()
			mb.mu.Unlock()
			runCtrl(mid)
		}
		// Recycle the drained buffer; zero it first so it doesn't pin the
		// delivered payloads until its next fill.
		for i := range msgs {
			msgs[i] = inbound{}
		}
		mb.mu.Lock()
		if mb.spare == nil || cap(msgs) > cap(mb.spare) {
			mb.spare = msgs[:0]
		}
		mb.mu.Unlock()
		if len(ctrl) == 0 && len(msgs) == 0 {
			if closed {
				return
			}
			<-mb.wake
		}
	}
}

// after arms a wall-clock timer whose callback runs on the actor loop.
func (mb *mailbox) after(d time.Duration, fn func()) {
	if d <= 0 {
		mb.enqueueCtrl(fn)
		return
	}
	time.AfterFunc(d, func() { mb.enqueueCtrl(fn) })
}
