package netrun_test

import (
	gonet "net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsmtx/internal/core"
	"dsmtx/internal/netrun"
	"dsmtx/internal/workloads"
)

// jobDeadline bounds one job on the loopback fleet. A crc32 job takes well
// under a second even under the race detector; a job still running after
// this has hung.
const jobDeadline = 60 * time.Second

// localFleet serves n daemons in this process on loopback listeners and
// joins them as their coordinator. The daemons' session ends when the
// cluster closes; cleanup waits for that only after a clean test, since a
// hung job leaves its daemon stuck by definition.
func localFleet(t *testing.T, n int) *netrun.Cluster {
	t.Helper()
	addrs := make([]string, n)
	codes := make(chan int, n)
	for i := range addrs {
		ln, err := gonet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		go func() { codes <- netrun.Serve(ln) }()
	}
	cl, err := netrun.Connect(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		if t.Failed() {
			return
		}
		for range addrs {
			select {
			case code := <-codes:
				if code != 0 {
					t.Errorf("daemon session exited %d", code)
				}
			case <-time.After(jobDeadline):
				t.Error("daemon did not end its session after the coordinator left")
				return
			}
		}
	})
	return cl
}

// runWithin runs one job, failing the test if it does not return within
// jobDeadline.
func runWithin(t *testing.T, cl *netrun.Cluster, spec netrun.JobSpec) (netrun.Result, error) {
	t.Helper()
	type outcome struct {
		res netrun.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := cl.Run(spec)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(jobDeadline):
		t.Fatalf("job %+v did not finish within %v", spec, jobDeadline)
		return netrun.Result{}, nil
	}
}

// TestSuccessiveJobsVerify runs a stream of crc32 jobs through one
// two-daemon fleet, as the engine's kept fleets do. Every job must reach
// the sequential checksum and none may hang: job teardown (the commit
// daemon closing its mesh right after its final sends) races the next job
// on every iteration. Half the jobs misspeculate, so recovery crosses the
// wire too. No daemon may log a connection retry: on a healthy loopback
// fleet a retry line would mean a start-up or teardown race.
func TestSuccessiveJobsVerify(t *testing.T) {
	const jobs = 50
	mark := len(netrun.Diagnostics())
	t.Cleanup(func() { // runs after the fleet's own cleanup has ended its daemons
		if log := netrun.Diagnostics()[mark:]; strings.Contains(log, "retrying") {
			t.Errorf("daemons retried a connection on a healthy fleet:\n%s", log)
		}
	})
	cl := localFleet(t, 2)
	b := mustBench(t, "crc32")
	want := map[workloads.Input]uint64{}
	for j := 0; j < jobs; j++ {
		in := workloads.Input{Scale: 1, Seed: uint64(1 + j%4), MisspecRate: 0.02 * float64(j%2)}
		check, ok := want[in]
		if !ok {
			var err error
			if _, check, err = workloads.RunSequentialRef(b, in); err != nil {
				t.Fatal(err)
			}
			want[in] = check
		}
		res, err := runWithin(t, cl, netrun.JobSpec{
			Bench: "crc32", Scale: in.Scale, MisspecRate: in.MisspecRate, Seed: in.Seed, Cores: 8,
		})
		if err != nil {
			t.Fatalf("job %d (%+v): %v", j, in, err)
		}
		if res.Checksum != check {
			t.Fatalf("job %d (%+v): checksum %#x, sequential %#x", j, in, res.Checksum, check)
		}
		if in.MisspecRate > 0 && res.Misspecs == 0 {
			t.Errorf("job %d (%+v): no misspeculation at rate %v", j, in, in.MisspecRate)
		}
	}
}

// TestRunRejectsBadSpecs checks that the coordinator refuses specs no
// daemon could run, before any daemon starts work, and that the fleet
// still serves a good job afterwards.
func TestRunRejectsBadSpecs(t *testing.T) {
	cl := localFleet(t, 2)
	for _, tc := range []struct {
		spec netrun.JobSpec
		want string
	}{
		{netrun.JobSpec{Bench: "no-such-bench", Scale: 1, Cores: 8}, "no-such-bench"},
		{netrun.JobSpec{Bench: "crc32", Scale: 1, Cores: 1}, "core"},
	} {
		_, err := runWithin(t, cl, tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Run(%+v) = %v, want an error mentioning %q", tc.spec, err, tc.want)
		}
	}
	res, err := runWithin(t, cl, netrun.JobSpec{Bench: "crc32", Scale: 1, Seed: 7, Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, check, err := workloads.RunSequentialRef(mustBench(t, "crc32"), workloads.Input{Scale: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum != check {
		t.Fatalf("checksum %#x after rejected specs, sequential %#x", res.Checksum, check)
	}
}

// shadowProbe is crc32 with one more input loaded at the end of Setup,
// whose fill panics once it has run more often than the job's commit
// daemon alone needs: the fill count is shared by every daemon of the
// in-process fleet, so a non-commit daemon filling input in its shadow
// Setup replay trips it.
type shadowProbe struct {
	netrun.Program
	fills *atomic.Int32
}

const probeChunks = 8

func (p shadowProbe) Setup(ctx *core.SeqCtx) {
	p.Program.Setup(ctx)
	ctx.LoadInput(ctx.Alloc(probeChunks*64), probeChunks, 64, func(i int, buf []byte) []byte {
		if p.fills.Add(1) > probeChunks {
			panic("input fill ran in a shadow Setup replay")
		}
		clear(buf)
		return buf
	})
}

// TestShadowReplaySkipsInputFill runs crc32 jobs whose Setup loads input
// with a fill that must not run in a shadow replay; every job must still
// verify against the sequential crc32 checksum.
func TestShadowReplaySkipsInputFill(t *testing.T) {
	var mu sync.Mutex
	fills := map[uint64]*atomic.Int32{} // per job, keyed by its distinct seed
	prev := netrun.SetProvider(func(spec netrun.JobSpec) (netrun.ProgramSet, error) {
		b, err := workloads.ByName(spec.Bench)
		if err != nil {
			return netrun.ProgramSet{}, err
		}
		mu.Lock()
		if fills[spec.Seed] == nil {
			fills[spec.Seed] = new(atomic.Int32)
		}
		n := fills[spec.Seed]
		mu.Unlock()
		in := workloads.Input{Scale: spec.Scale, MisspecRate: spec.MisspecRate, Seed: spec.Seed}
		return netrun.ProgramSet{Invocations: 1, New: func(int) netrun.Program {
			return shadowProbe{Program: b.NewDSMTX(in, 0), fills: n}
		}}, nil
	})
	t.Cleanup(func() { netrun.SetProvider(prev) }) // after the fleet's cleanup
	cl := localFleet(t, 2)
	b := mustBench(t, "crc32")
	for seed := uint64(1); seed <= 3; seed++ {
		in := workloads.Input{Scale: 1, Seed: seed, MisspecRate: 0.02}
		_, check, err := workloads.RunSequentialRef(b, in)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runWithin(t, cl, netrun.JobSpec{
			Bench: "crc32", Scale: 1, MisspecRate: in.MisspecRate, Seed: seed, Cores: 8,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Checksum != check {
			t.Fatalf("seed %d: checksum %#x, sequential %#x", seed, res.Checksum, check)
		}
		if got := fills[seed].Load(); got != probeChunks {
			t.Errorf("seed %d: probe input filled %d times, want %d", seed, got, probeChunks)
		}
	}
}

func mustBench(t *testing.T, name string) *workloads.Benchmark {
	t.Helper()
	b, err := workloads.ByName(name)
	if err != nil {
		t.Fatalf("bench %s: %v", name, err)
	}
	return b
}
