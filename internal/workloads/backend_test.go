package workloads

import (
	"testing"

	"dsmtx/internal/core"
	"dsmtx/internal/faults"
	"dsmtx/internal/trace"
)

// The host backend runs the same DSMTX protocol as the vtime simulator but
// on live goroutines with nondeterministic interleaving. Protocol outcomes
// must nonetheless be backend-invariant: misspeculations come from the
// input's deterministic per-iteration misspec set (not from timing), and
// Copy-On-Access pages are served from the invocation-entry snapshot, so
// the values any iteration observes — and hence the committed state — do
// not depend on scheduling. These tests pin that equivalence: both backends
// must reproduce the sequential reference checksum with identical committed
// MTX counts. They are part of the -race gate in verify.sh, which also
// makes them the data-race audit of the host execution path.

// checkBackendEquivalence runs one benchmark's parallelization on both
// backends at the same core count and cross-checks them against the
// sequential reference.
func checkBackendEquivalence(t *testing.T, name string, paradigm Paradigm, in Input, cores int) {
	t.Helper()
	b, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	_, seqCheck, err := RunSequentialRef(b, in)
	if err != nil {
		t.Fatal(err)
	}
	vres, err := RunParallel(b, in, paradigm, cores, nil)
	if err != nil {
		t.Fatalf("vtime: %v", err)
	}
	hres, err := RunParallel(b, in, paradigm, cores, func(cfg *core.Config) {
		cfg.Backend = core.BackendHost
	})
	if err != nil {
		t.Fatalf("host: %v", err)
	}
	if vres.Checksum != seqCheck {
		t.Errorf("vtime checksum %#x != sequential %#x", vres.Checksum, seqCheck)
	}
	if hres.Checksum != seqCheck {
		t.Errorf("host checksum %#x != sequential %#x", hres.Checksum, seqCheck)
	}
	if hres.Committed != vres.Committed {
		t.Errorf("committed MTXs differ: host %d, vtime %d", hres.Committed, vres.Committed)
	}
	if hres.Misspecs != vres.Misspecs {
		t.Errorf("misspeculations differ: host %d, vtime %d", hres.Misspecs, vres.Misspecs)
	}
	if hres.Elapsed <= 0 {
		t.Errorf("host elapsed %v, want > 0 wall time", hres.Elapsed)
	}
	if in.MisspecRate > 0 && hres.Misspecs == 0 {
		t.Errorf("misspec rate %v produced no misspeculations; recovery path not exercised", in.MisspecRate)
	}
}

func TestBackendEquivalenceCRC32(t *testing.T) {
	// MisspecRate forces real misspeculation/recovery cycles — four-phase
	// recovery (barriers, queue flush, SEQ re-execution, snapshot refresh)
	// runs live on goroutines and must still converge to the same state.
	checkBackendEquivalence(t, "crc32", DSMTX, Input{Scale: 1, Seed: 42, MisspecRate: 0.02}, 8)
}

// The misspeculating runs below use 16 ranks, more than the cores of most
// test machines, so stopped workers, recoveries and the doom horizon (the
// live backends' early squash) interleave under oversubscription.

func TestBackendEquivalenceCRC32TLSMisspec(t *testing.T) {
	// TLS: one self-scheduled DOALL stage on a sync ring, so a successor may
	// wait on the ring value of a predecessor stopped at the horizon.
	checkBackendEquivalence(t, "crc32", TLS, Input{Scale: 1, Seed: 42, MisspecRate: 0.02}, 16)
}

func TestBackendEquivalenceBzip2Misspec(t *testing.T) {
	// Spec-DSWP [S,DOALL,S]: the routed DOALL stage and the sequential
	// write stage stop at the horizon mid-pipeline.
	checkBackendEquivalence(t, "256.bzip2", DSMTX, Input{Scale: 1, Seed: 42, MisspecRate: 0.02}, 16)
}

func TestBackendEquivalenceBlackscholes(t *testing.T) {
	checkBackendEquivalence(t, "blackscholes", DSMTX, Input{Scale: 1, Seed: 42}, 8)
}

func TestBackendEquivalenceGzip(t *testing.T) {
	// A pipelined (multi-stage) plan: exercises cross-stage forwarding and
	// route records over the host mailboxes.
	checkBackendEquivalence(t, "164.gzip", DSMTX, Input{Scale: 1, Seed: 42}, 11)
}

// TestHostBackendRejectsVTimeOnlyFeatures pins the validation boundary:
// the fault and tracing subsystems are built on the virtual-time kernel.
func TestHostBackendRejectsVTimeOnlyFeatures(t *testing.T) {
	b, err := ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	prog := b.NewDSMTX(Input{Scale: 1, Seed: 42}, 0)
	cfg := core.DefaultConfig(8, prog.Plan())
	cfg.Backend = core.BackendHost
	cfg.Faults = &faults.Plan{Seed: 1, DropRate: 0.1}
	if _, err := core.NewSystem(cfg, prog, nil); err == nil {
		t.Fatal("host backend accepted a fault plan")
	}
}

// TestHostStallRowsNonNegative pins the host stall attribution: busy time
// is each rank's wall-clock life minus the waits it measured, so no row
// can go negative — including ranks that wait through recovery and the
// oversubscribed case, where a wait's wall time far exceeds its vtime
// backoff.
func TestHostStallRowsNonNegative(t *testing.T) {
	b, err := ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunParallel(b, Input{Scale: 1, Seed: 42, MisspecRate: 0.02}, DSMTX, 16, func(cfg *core.Config) {
		cfg.Backend = core.BackendHost
		cfg.Tracer = trace.New()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stalls.Host || len(res.Stalls.Rows) == 0 {
		t.Fatalf("no host stall rows (host=%v, %d rows)", res.Stalls.Host, len(res.Stalls.Rows))
	}
	for _, row := range res.Stalls.Rows {
		if row.Busy < 0 {
			t.Errorf("%s: busy %v < 0 (starvation %v, backpressure %v, verdict %v, recovery %v, blocked %v)",
				row.Label, row.Busy, row.Starvation, row.Backpressure, row.VerdictWait, row.Recovery, row.Blocked)
		}
	}
}
