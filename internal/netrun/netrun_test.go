package netrun_test

import (
	gonet "net"
	"strings"
	"testing"
	"time"

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
// wire too.
func TestSuccessiveJobsVerify(t *testing.T) {
	const jobs = 50
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

func mustBench(t *testing.T, name string) *workloads.Benchmark {
	t.Helper()
	b, err := workloads.ByName(name)
	if err != nil {
		t.Fatalf("bench %s: %v", name, err)
	}
	return b
}
