package core

import (
	"dsmtx/internal/platform"
	"dsmtx/internal/queue"
)

// entryCursor adapts a RecvPort to batch draining: one TryConsumeBatch
// pulls every buffered entry at once — charging the same per-entry consume
// cost in a single Advance — and the drain loops then step through the
// buffer with no further scheduler interaction. A subTX boundary mid-batch
// simply leaves the remainder buffered for the next drain.
//
// Recovery must go through abort, which discards buffered entries (stale
// speculative state) along with the port's own state.
type entryCursor struct {
	port *queue.RecvPort[Entry]
	buf  []Entry
	pos  int
	// waitOn is what a consumer blocked on this cursor waits for: the
	// port's mailbox plus the owner's control mailbox, if any.
	waitOn []platform.Mailbox
}

func newEntryCursor(port *queue.RecvPort[Entry], ctrl ...platform.Mailbox) *entryCursor {
	return &entryCursor{port: port, waitOn: append([]platform.Mailbox{port.Mailbox()}, ctrl...)}
}

// tryNext returns the next buffered entry, pulling a new batch from the
// port when the buffer is spent.
func (c *entryCursor) tryNext() (Entry, bool) {
	if c.pos < len(c.buf) {
		e := c.buf[c.pos]
		c.pos++
		return e, true
	}
	if b, ok := c.port.TryConsumeBatch(); ok {
		c.buf, c.pos = b, 1
		return b[0], true
	}
	c.buf, c.pos = nil, 0
	return Entry{}, false
}

// abort drops buffered entries and aborts the underlying port.
func (c *entryCursor) abort(epoch uint64) {
	c.buf, c.pos = nil, 0
	c.port.Abort(epoch)
}
