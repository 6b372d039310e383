package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dsmtx/internal/pipeline"
	"dsmtx/internal/trace"
	"dsmtx/internal/uva"
)

// Early squash on the live backends: once a worker flags MTX k as
// misspeculated, no worker starts an MTX past k in that epoch (the recovery
// that follows discards them), and a worker stopped at the doom horizon
// leaves on the commit unit's verdict — recovery, or done when k lies past
// the loop exit.

// squashProg is a Spec-DOALL loop over n iterations writing f(iter) to
// out[iter]. Iteration flag misspeculates in its first run; its sequential
// re-execution writes g(flag) instead. With hold set, the bodies of the
// pool's last iterations before flag (flag-P < iter < flag) wait until the
// system's doom horizon is set, so every worker's next iteration lies past
// the flag when it is considered: without the horizon check each would
// start one. MTX flag-1 then lags a further lag, which the commit unit
// must wait out before it reaches flag and recovers.
type squashProg struct {
	n, flag uint64
	hold    bool
	lag     time.Duration
	sys     *System // read by held bodies; set before Run

	out       uva.Addr
	recovered atomic.Bool  // SeqIter(flag) ran: the flagged epoch is over
	early     atomic.Int64 // bodies of MTXs > flag started before that
	timedOut  atomic.Bool  // a held body gave up waiting for the horizon
}

func (p *squashProg) f(k uint64) uint64 { return k*0x9e3779b97f4a7c15 + 1 }
func (p *squashProg) g(k uint64) uint64 { return p.f(k) ^ 0xdead }

func (p *squashProg) Setup(ctx *SeqCtx) {
	p.out = ctx.AllocWords(int(p.n) + 1)
}

func (p *squashProg) Stage(ctx *Ctx, _ int, iter uint64) bool {
	if iter == p.flag && !p.recovered.Load() {
		ctx.Misspec() // may lie past the loop exit: a speculative iteration
	}
	if iter >= p.n {
		return false
	}
	if iter > p.flag && !p.recovered.Load() {
		p.early.Add(1)
	}
	if p.hold && iter < p.flag && iter+uint64(ctx.PoolSize()) > p.flag {
		deadline := time.Now().Add(10 * time.Second)
		for p.sys.doomFrom.Load() == 0 {
			if time.Now().After(deadline) {
				p.timedOut.Store(true)
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		if iter == p.flag-1 {
			time.Sleep(p.lag)
		}
	}
	ctx.Write(p.out+uva.Addr(iter*8), p.f(iter))
	return true
}

func (p *squashProg) SeqIter(ctx *SeqCtx, iter uint64) {
	v := p.f(iter)
	if iter == p.flag {
		p.recovered.Store(true)
		v = p.g(iter)
	}
	ctx.Store(p.out+uva.Addr(iter*8), v)
}

// checkSquashOut compares the committed out[] with a sequential run of the
// same loop.
func checkSquashOut(t *testing.T, sys *System, cfg Config, p *squashProg) {
	t.Helper()
	ref := &squashProg{n: p.n, flag: p.flag}
	_, img, err := RunSequential(cfg, ref, p.n, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := sys.CommitImage()
	for k := uint64(0); k < p.n; k++ {
		a := p.out + uva.Addr(k*8)
		if g, w := got.Load(a), img.Load(ref.out+uva.Addr(k*8)); g != w {
			t.Fatalf("out[%d] = %#x, sequential %#x", k, g, w)
		}
	}
}

// runWithin runs sys to completion or fails the test at the deadline (a
// stopped worker that never leaves would otherwise hang the run).
func runWithin(t *testing.T, sys *System, d time.Duration) Result {
	t.Helper()
	type out struct {
		res Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := sys.Run()
		ch <- out{res, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return o.res
	case <-time.After(d):
		t.Fatalf("run did not finish within %v", d)
		return Result{}
	}
}

func hostConfig(cores int, plan pipeline.Plan) Config {
	cfg := smallConfig(cores, plan)
	cfg.Backend = BackendHost
	return cfg
}

// TestSquashStopsDoomedMTXs: with MTX flag-1 (and the pool's other last
// iterations before flag) held until flag is flagged, no stage body of an
// MTX past flag starts in the flagged epoch, every worker stops exactly
// once, the stopped wait lands in the Recovery stall column, and the
// committed state equals the sequential reference.
func TestSquashStopsDoomedMTXs(t *testing.T) {
	const workers = 4
	const lag = 50 * time.Millisecond
	prog := &squashProg{n: 64, flag: 21, hold: true, lag: lag}
	cfg := hostConfig(workers+2, pipeline.SpecDOALL())
	cfg.Tracer = trace.New()
	sys, err := NewSystem(cfg, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog.sys = sys
	res := runWithin(t, sys, 30*time.Second)
	if prog.timedOut.Load() {
		t.Fatal("held bodies timed out: MTX flag never set the doom horizon")
	}
	if n := prog.early.Load(); n != 0 {
		t.Errorf("%d stage bodies of MTXs past %d started in the flagged epoch", n, prog.flag)
	}
	if res.Misspecs != 1 || res.Committed != prog.n {
		t.Errorf("misspecs %d committed %d, want 1 and %d", res.Misspecs, res.Committed, prog.n)
	}
	if got := cfg.Tracer.Metrics().Counter("core.subtx.doomed").Value(); got != workers {
		t.Errorf("core.subtx.doomed = %d, want one stop per worker (%d)", got, workers)
	}
	// The worker that flagged stops at once and waits out MTX flag-1's lag
	// for the recovery.
	flagger := fmt.Sprintf("worker%d", sys.Layout().WorkerOf(0, prog.flag))
	for _, row := range sys.StallReport().Rows {
		if row.Label == flagger && time.Duration(row.Recovery) < lag {
			t.Errorf("%s: recovery %v, want the stopped wait (>= %v) charged to recovery", row.Label, row.Recovery, lag)
		}
		if row.Busy < 0 {
			t.Errorf("%s: busy %v < 0", row.Label, row.Busy)
		}
	}
	checkSquashOut(t, sys, cfg, prog)
}

// TestSquashPastLoopExit: an iteration past the loop exit misspeculates, so
// no recovery follows and the stopped workers must leave on done. The warm
// system then runs a longer loop through Reset (the engine's pool path): a
// horizon left over from the first job would stop it at the old flag.
func TestSquashPastLoopExit(t *testing.T) {
	const workers = 4
	cfg := hostConfig(workers+2, pipeline.SpecDOALL())
	prog := &squashProg{n: 30, flag: 31}
	sys, err := NewSystem(cfg, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := runWithin(t, sys, 30*time.Second)
	if res.Misspecs != 0 || res.Committed != prog.n {
		t.Errorf("misspecs %d committed %d, want 0 and %d", res.Misspecs, res.Committed, prog.n)
	}
	if sys.doomFrom.Load() != prog.flag+1 {
		t.Fatalf("doom horizon %d after the run, want %d: the past-exit flag was not exercised",
			sys.doomFrom.Load(), prog.flag+1)
	}
	checkSquashOut(t, sys, cfg, prog)

	next := &squashProg{n: 100, flag: 1 << 40}
	if err := sys.Reset(cfg, next, nil); err != nil {
		t.Fatal(err)
	}
	res = runWithin(t, sys, 30*time.Second)
	if res.Misspecs != 0 || res.Committed != next.n {
		t.Errorf("warm rerun: misspecs %d committed %d, want 0 and %d", res.Misspecs, res.Committed, next.n)
	}
	checkSquashOut(t, sys, cfg, next)
}
