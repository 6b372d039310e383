package platformtest

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dsmtx/internal/platform"
)

// WaitWorld is one execution world for the Proc.Wait conformance checks:
// ranks whose processes run on their home platform. Unlike World it needs
// no bare-goroutine senders, so the deterministic vtime backend runs the
// same checks as the concurrent ones.
type WaitWorld interface {
	// Endpoint returns rank r's endpoint on its home platform.
	Endpoint(rank int) platform.Endpoint
	// Spawn starts fn as a process of rank r on its home platform.
	Spawn(rank int, fn func(p platform.Proc))
	// Run executes every spawned process to completion and returns the
	// first process failure.
	Run() error
}

// WaitFactory builds a fresh WaitWorld with the given rank count.
type WaitFactory func(t *testing.T, ranks int) WaitWorld

// waitDeadline bounds every Wait check: a lost wakeup shows as a consumer
// that never returns, reported here instead of as a hung test binary.
const waitDeadline = 60 * time.Second

// Wait-check ranks and tags: two producers, each with its own box on the
// consumer, and a go signal from the consumer back to each producer.
const (
	waitConsumer = 2
	tagGo        = 30
)

func waitTag(producer int) int { return 31 + producer }

// RunWait executes the Proc.Wait conformance checks against the backend:
//
//   - a message to any mailbox in the set ends the wait;
//   - no wakeup is lost when a send races the waiter arming to park (a
//     ping-pong stress: each send is released just as the consumer starts
//     waiting, so under -race at several GOMAXPROCS the arm/publish/re-check
//     order is exercised from both sides);
//   - a failed process elsewhere on the platform unwinds a parked waiter,
//     so Run reports the failure instead of hanging.
func RunWait(t *testing.T, factory WaitFactory) {
	t.Run("AnyBoxWakes", func(t *testing.T) {
		// Producers sleep before each send so the consumer is parked (on
		// the live backends) when the message lands.
		pingPong(t, factory(t, 3), 20, 200*platform.Microsecond)
	})
	t.Run("NoLostWakeup", func(t *testing.T) {
		rounds := 20000
		if testing.Short() {
			rounds = 2000
		}
		pingPong(t, factory(t, 3), rounds, 0)
	})
	t.Run("FailureUnwinds", func(t *testing.T) { failureUnwinds(t, factory(t, 3)) })
}

// pingPong runs rounds of: the consumer releases producer r%2, then waits
// on both producers' boxes until that producer's message arrives. A
// message in the other box, or a wait that never ends, fails the check.
func pingPong(t *testing.T, w WaitWorld, rounds int, delay platform.Duration) {
	cons := w.Endpoint(waitConsumer)
	boxes := []platform.Mailbox{cons.Mailbox(0, waitTag(0)), cons.Mailbox(1, waitTag(1))}
	for i := 0; i < 2; i++ {
		w.Endpoint(i).Mailbox(waitConsumer, tagGo)
	}
	for i := 0; i < 2; i++ {
		i := i
		w.Spawn(i, func(p platform.Proc) {
			ep := w.Endpoint(i)
			for r := i; r < rounds; r += 2 {
				ep.Recv(p, waitConsumer, tagGo)
				p.Advance(delay)
				ep.Send(waitConsumer, waitTag(i), uint64(r), 8)
			}
		})
	}
	var consumeErr error
	w.Spawn(waitConsumer, func(p platform.Proc) {
		for r := 0; r < rounds; r++ {
			cons.Send(r%2, tagGo, nil, 8)
			for {
				msg, ok := boxes[r%2].TryRecv()
				if ok {
					if msg.Payload.(uint64) != uint64(r) {
						consumeErr = fmt.Errorf("round %d: received round %v", r, msg.Payload)
						return
					}
					break
				}
				if msg, ok := boxes[1-r%2].TryRecv(); ok {
					consumeErr = fmt.Errorf("round %d: unexpected message %+v in the idle box", r, msg)
					return
				}
				if d := p.Wait(boxes, platform.Microsecond); d < 0 {
					consumeErr = fmt.Errorf("round %d: Wait returned %v", r, d)
					return
				}
			}
		}
	})
	if err := runWithin(w); err != nil {
		t.Fatal(err)
	}
	if consumeErr != nil {
		t.Fatal(consumeErr)
	}
}

// failureUnwinds parks a consumer on boxes nobody sends to while another
// process of the same platform panics: Run must return that failure.
func failureUnwinds(t *testing.T, w WaitWorld) {
	cons := w.Endpoint(waitConsumer)
	boxes := []platform.Mailbox{cons.Mailbox(0, waitTag(0)), cons.Mailbox(1, waitTag(1))}
	w.Spawn(waitConsumer, func(p platform.Proc) {
		for !anyReady(boxes) {
			p.Wait(boxes, platform.Microsecond)
		}
	})
	w.Spawn(waitConsumer, func(p platform.Proc) {
		p.Advance(platform.Millisecond) // let the consumer park first
		panic("injected failure")
	})
	err := runWithin(w)
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("Run = %v, want the injected failure", err)
	}
}

// anyReady reports whether any box yields a message; none is ever sent,
// so only the failure ends the consumer's wait loop.
func anyReady(boxes []platform.Mailbox) bool {
	for _, b := range boxes {
		if _, ok := b.TryRecv(); ok {
			return true
		}
	}
	return false
}

// runWithin runs the world, failing after waitDeadline. A timed-out world
// is abandoned: its processes are stuck by definition.
func runWithin(w WaitWorld) error {
	done := make(chan error, 1)
	go func() { done <- w.Run() }()
	select {
	case err := <-done:
		return err
	case <-time.After(waitDeadline):
		return fmt.Errorf("world did not finish within %v: a waiter missed its wakeup", waitDeadline)
	}
}
