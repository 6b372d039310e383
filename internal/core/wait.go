package core

import "dsmtx/internal/platform"

// pollWait is the runtime's one blocking wait: it calls ready until it
// reports true, waiting on boxes — every mailbox whose traffic can make
// ready succeed — in between. Each wait goes through Proc.Wait with a
// doubling backoff from PollMin to PollMax, which only vtime uses: there
// every wait charges exactly that backoff, while host and net park until a
// box is signalled. The time each wait returns is added to every bucket as
// it passes, so a ready that unwinds (a recovery signal) leaves the waits
// so far accounted.
func (s *System) pollWait(p platform.Proc, boxes []platform.Mailbox, ready func() bool, buckets ...*platform.Duration) {
	backoff := s.cfg.PollMin
	for !ready() {
		d := p.Wait(boxes, backoff)
		for _, b := range buckets {
			*b += d
		}
		if backoff < s.cfg.PollMax {
			backoff *= 2
		}
	}
}
