package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dsmtx/internal/engine"
	"dsmtx/internal/netrun"
)

func TestMain(m *testing.M) {
	if os.Getenv(netrun.DaemonEnv) == "1" {
		// net-crc32's engine re-executes this test binary as its daemons.
		os.Exit(netrun.DaemonMain())
	}
	os.Exit(m.Run())
}

func TestJobListsFollowTheSeed(t *testing.T) {
	for _, w := range workloadList {
		if w.Open {
			continue
		}
		a, b, c := closedJobs(w, 7), closedJobs(w, 7), closedJobs(w, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed gave two job lists", w.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same job list", w.Name)
		}
		seen := map[uint64]bool{}
		for _, j := range a {
			if seen[j.Seed] {
				t.Errorf("%s: input seed %d repeats within a run", w.Name, j.Seed)
			}
			seen[j.Seed] = true
		}
	}
	a, b, c := serveSchedule(7, 15, 100), serveSchedule(7, 15, 100), serveSchedule(8, 15, 100)
	if !reflect.DeepEqual(a, b) {
		t.Error("serve-mix: one seed gave two schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("serve-mix: seeds 7 and 8 gave the same schedule")
	}
}

func TestServeScheduleShape(t *testing.T) {
	sched := serveSchedule(3, 15, 100)
	if want := int(serveRate * 15); len(sched) != want {
		t.Fatalf("%d arrivals, want %d", len(sched), want)
	}
	if len(serveSchedule(3, 1, 100)) != 100 {
		t.Error("a short window must still schedule enough arrivals for the p90 tail")
	}
	seen := map[engine.JobSpec]bool{}
	perKind := map[string]int{}
	repeats := 0
	for i, a := range sched {
		if i > 0 && a.At < sched[i-1].At {
			t.Fatalf("arrival %d at %v before arrival %d at %v", i, a.At, i-1, sched[i-1].At)
		}
		if a.At < 0 || a.At >= 15*time.Second {
			t.Fatalf("arrival %d at %v outside the window", i, a.At)
		}
		if seen[a.Spec] {
			repeats++
		} else {
			perKind[a.Spec.Bench+"/"+a.Spec.Backend]++
		}
		seen[a.Spec] = true
	}
	if want := int(serveRepeatShare*float64(len(sched)) + 0.5); repeats != want {
		t.Errorf("%d repeats, want exactly %d", repeats, want)
	}
	lo, hi := len(sched), 0
	for _, n := range perKind {
		lo, hi = min(lo, n), max(hi, n)
	}
	if len(perKind) != len(serveKinds) || hi-lo > 1 {
		t.Errorf("fresh arrivals per kind %v, want every kind within one of the others", perKind)
	}
}

func TestPercentileAndTailRule(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if got := median(xs); got != 50 {
		t.Errorf("median of 1..100 = %v, want 50", got)
	}
	if got := percentile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if beyond(100, 0.9) != 10 || beyond(99, 0.9) != 9 {
		t.Errorf("beyond(100)=%d beyond(99)=%d, want 10 and 9", beyond(100, 0.9), beyond(99, 0.9))
	}
	if n := samplesFor(0.9); n != 100 {
		t.Errorf("samplesFor(0.9) = %d, want 100", n)
	}
	if fullPlan(15).minJobs != samplesFor(0.9) {
		t.Error("a full run must collect enough jobs for minTail samples beyond its p90")
	}
	// statistics.quantiles(range(1, 11), n=4) in Python.
	if q := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles(1..10) = %v, want [2.75 5.5 8.25]", q)
	}
}

func TestOpenLoopTimesFromTheSchedule(t *testing.T) {
	sched := []arrival{{At: 0}, {At: 10 * time.Millisecond}, {At: 20 * time.Millisecond}}
	const late = 300 * time.Millisecond
	const service = 50 * time.Millisecond
	// Start the schedule in the past: every send is already late, as when
	// the generator stalls, and that wait must show in latency and lag.
	out, _ := openLoop(sched, time.Now().Add(-late), func(arrival) (engine.Result, bool) {
		time.Sleep(service)
		return engine.Result{}, true
	})
	for i, s := range out {
		wantLag := late - sched[i].At
		if s.lag < wantLag {
			t.Errorf("arrival %d: lag %v, want at least %v", i, s.lag, wantLag)
		}
		if s.lat < wantLag+service {
			t.Errorf("arrival %d: latency %v does not count the %v it was sent late", i, s.lat, wantLag)
		}
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"job_ms_p50","better":"lower","bound":0.1}]}`), 0o644)
	res := result{Correct: true, Attempted: 1, Metrics: map[string]metric{"job_ms_p50": {Value: 10, Unit: "ms"}}}
	write := func(name string, f facts, v float64) string {
		r := res
		r.Metrics = map[string]metric{"job_ms_p50": {Value: v, Unit: "ms"}}
		path := filepath.Join(dir, name)
		if err := appendRecord(path, record{Workload: "host-gzip", Facts: f, Result: r}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	here := machineFacts()
	other := here
	other.CPUModel = "another cpu"
	base := write("base.jsonl", here, 10)
	if code := compareMain([]string{"--benchmark", bench, base, write("same.jsonl", here, 10.5)}, &bytes.Buffer{}); code != 0 {
		t.Errorf("same machine, 5%% slower under a 10%% bound: exit %d, want 0", code)
	}
	if code := compareMain([]string{"--benchmark", bench, base, write("slow.jsonl", here, 12)}, &bytes.Buffer{}); code != 1 {
		t.Errorf("same machine, 20%% slower: exit %d, want 1", code)
	}
	if code := compareMain([]string{"--benchmark", bench, base, write("other.jsonl", other, 10)}, &bytes.Buffer{}); code != 2 {
		t.Errorf("different CPU model: exit %d, want 2 (refused)", code)
	}
}

// TestSmokeEveryWorkload runs each workload in --check mode: a few jobs
// through the correctness gate and a result line carrying exactly the
// metrics BENCHMARK.json lists for that mode.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real jobs")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	listed := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range bf.EndToEnd {
		listed["0"][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		listed["1"][m.Name] = m.Unit
	}
	t.Chdir(t.TempDir())
	for _, w := range workloadList {
		for _, traced := range []string{"0", "1"} {
			var out bytes.Buffer
			if err := run([]string{"--workload", w.Name, "--seed", "5", "--check", "--trace", traced}, &out); err != nil {
				t.Fatalf("%s trace %s: %v", w.Name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: %+v", w.Name, traced, res)
			}
			for name, unit := range listed[traced] {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace %s: %s is %+v (present %v), BENCHMARK.json says unit %s", w.Name, traced, name, m, ok, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := listed[traced][name]; !ok {
					t.Errorf("%s trace %s: reports %s, which BENCHMARK.json does not list", w.Name, traced, name)
				}
			}
		}
	}
}
