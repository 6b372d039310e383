package vtime

import (
	"testing"

	"dsmtx/internal/cluster"
	"dsmtx/internal/platform"
	"dsmtx/internal/platform/platformtest"
	"dsmtx/internal/sim"
)

func newPlatform(ranks int) *Platform {
	cfg := cluster.DefaultConfig()
	cfg.Nodes, cfg.CoresPerNode = ranks, 1
	k := sim.NewKernel()
	return New(k, cluster.New(k, cfg))
}

// vtimeWaitWorld runs the Wait conformance checks on one simulated
// machine; every process is a kernel process, whatever its rank.
type vtimeWaitWorld struct{ v *Platform }

func (w vtimeWaitWorld) Endpoint(rank int) platform.Endpoint   { return w.v.Endpoint(rank) }
func (w vtimeWaitWorld) Spawn(_ int, fn func(p platform.Proc)) { w.v.Spawn("proc", fn) }
func (w vtimeWaitWorld) Run() error                            { return w.v.Run(0) }

func TestWaitConformance(t *testing.T) {
	platformtest.RunWait(t, func(t *testing.T, ranks int) platformtest.WaitWorld {
		return vtimeWaitWorld{newPlatform(ranks)}
	})
}

// TestWaitChargesExactlyD pins the vtime contract the goldens rest on: a
// Wait is exactly one Advance(d) and reports d, whether or not a message
// is already waiting.
func TestWaitChargesExactlyD(t *testing.T) {
	v := newPlatform(2)
	box := v.Endpoint(1).Mailbox(0, 1)
	boxes := []platform.Mailbox{box}
	v.Spawn("waiter", func(p platform.Proc) {
		for _, d := range []platform.Duration{100, 1600, 0} {
			t0, adv0 := p.Now(), p.Advanced()
			if got := p.Wait(boxes, d); got != d {
				t.Errorf("Wait(%v) returned %v", d, got)
			}
			if p.Now()-t0 != d || p.Advanced()-adv0 != d {
				t.Errorf("Wait(%v) moved the clock %v and busy time %v", d, p.Now()-t0, p.Advanced()-adv0)
			}
		}
		v.Endpoint(0).Send(1, 1, nil, 8)
		p.Advance(platform.Millisecond) // the message is now queued
		t0 := p.Now()
		if got := p.Wait(boxes, 400); got != 400 || p.Now()-t0 != 400 {
			t.Errorf("Wait with a queued message returned %v after %v, want 400 both", got, p.Now()-t0)
		}
		if _, ok := box.TryRecv(); !ok {
			t.Error("queued message lost")
		}
	})
	if err := v.Run(0); err != nil {
		t.Fatal(err)
	}
}
