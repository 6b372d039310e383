package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"dsmtx/internal/engine"
	"dsmtx/internal/expsched"
	"dsmtx/internal/trace"
	"dsmtx/internal/workloads"
)

// scratchRoot holds the serve-mix result caches, inside the checkout the
// benchmark runs from.
const scratchRoot = ".bench_build"

// serveEnv is one serving stack: a cached, admission-bounded engine behind
// the in-process HTTP handler.
type serveEnv struct {
	dir  string
	eng  *engine.Engine
	h    http.Handler
	refs map[workloads.Input]ref
}

func (s *serveEnv) close() {
	s.eng.Close()
	os.RemoveAll(s.dir)
}

// serveSetup builds a serving stack for a schedule: the sequential
// references of every input it names, a fresh result-cache directory, the
// engine and handler, and the discarded warm-up job.
func serveSetup(sched []arrival, warm engine.JobSpec, reg *trace.Metrics, spans *spanLog) (*serveEnv, error) {
	specs := make([]engine.JobSpec, len(sched))
	for i, a := range sched {
		specs[i] = a.Spec
	}
	refs, err := seqRefs(specs, spans)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchRoot, "serve-cache-")
	if err != nil {
		return nil, err
	}
	cache, err := expsched.OpenCache(dir, "perfbench")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	eng := engine.New(engine.Config{Cache: cache, MaxConcurrent: runtime.NumCPU(), Metrics: reg})
	env := &serveEnv{dir: dir, eng: eng, h: engine.NewServer(eng).Handler(), refs: refs}
	t := time.Now()
	res, err := post(env.h, warm)
	spans.add("handler warm-up", t)
	if err == nil && !res.Verified {
		err = fmt.Errorf("response not verified")
	}
	if err != nil {
		env.close()
		return nil, fmt.Errorf("warm-up job %s: %w", warm, err)
	}
	return env, nil
}

// post submits one spec through the handler with POST /jobs?wait=1 and
// decodes the result.
func post(h http.Handler, spec engine.JobSpec) (engine.Result, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return engine.Result{}, err
	}
	req := httptest.NewRequest(http.MethodPost, "/jobs?wait=1", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return engine.Result{}, fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	var res engine.Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		return engine.Result{}, fmt.Errorf("decode response: %w", err)
	}
	return res, nil
}

// sent is one open-loop submission's outcome.
type sent struct {
	lat time.Duration // from the scheduled send time to the decoded response
	lag time.Duration // how late the generator sent it
	res engine.Result
	ok  bool // verified and equal to the sequential reference
}

// openLoop replays the schedule from t0: each arrival is sent at t0+At
// whether or not earlier ones have returned, and timed from that due time,
// so a late generator or a stalled server shows in the latency. send
// submits one arrival and reports its result and whether it passed the
// correctness gate. openLoop returns every outcome and the wall time from
// t0 to the last response.
func openLoop(sched []arrival, t0 time.Time, send func(arrival) (engine.Result, bool)) ([]sent, time.Duration) {
	out := make([]sent, len(sched))
	var wg sync.WaitGroup
	for i, a := range sched {
		due := t0.Add(a.At)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			start := time.Now()
			res, ok := send(a)
			out[i] = sent{lat: time.Since(due), lag: start.Sub(due), res: res, ok: ok}
		}(i, a, due)
	}
	wg.Wait()
	return out, time.Since(t0)
}

// sender posts arrivals to env's handler and gates each response: it must
// be verified and match the benchmark's own sequential reference.
func (env *serveEnv) sender(spans *spanLog) func(arrival) (engine.Result, bool) {
	return func(a arrival) (engine.Result, bool) {
		t := time.Now()
		res, err := post(env.h, a.Spec)
		spans.add("handler", t)
		return res, err == nil && res.Verified && res.Checksum == env.refs[input(a.Spec)].check
	}
}

// tally counts the outcomes and collects verified latencies in ms.
func tally(out []sent, res *result) []float64 {
	var lat []float64
	for _, s := range out {
		res.Attempted++
		if !s.ok {
			res.Failed++
			continue
		}
		lat = append(lat, ms(s.lat))
	}
	res.Correct = res.Failed == 0
	return lat
}

func runServe(w workload, seed uint64, plan runPlan, traced bool) (result, error) {
	sched := serveSchedule(seed, plan.seconds, plan.minJobs)
	warm := warmupSpec(seed)
	if traced {
		return runServeTraced(w, sched, warm)
	}
	spans := &spanLog{}
	env, err := serveSetup(sched, warm, nil, spans)
	if err != nil {
		return result{}, err
	}
	setups := []float64{time.Since(processStart).Seconds()}
	cpu0, rss := cpuTime(), startRSS(nil)
	out, wall := openLoop(sched, time.Now(), env.sender(spans))
	cpu := cpuTime() - cpu0
	rssMiB := rss.finish()
	seqWalls := wallsMS(env.refs)
	env.close()

	for len(setups) < plan.setups {
		t := time.Now()
		e, err := serveSetup(sched, warm, nil, spans)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t).Seconds())
		seqWalls = append(seqWalls, wallsMS(e.refs)...)
		e.close()
	}

	var res result
	lat := tally(out, &res)
	if len(lat) == 0 {
		return result{}, fmt.Errorf("%s: no verified responses", w.Name)
	}
	// Half the inputs are each benchmark, so a median of the references
	// would flip between the two; their mean is the steady middle.
	var seqSum float64
	for _, x := range seqWalls {
		seqSum += x
	}
	p50 := median(lat)
	res.set("setup_s", "s", median(setups))
	res.set("job_ms_p50", "ms", p50)
	res.set("job_ms_p90", "ms", percentile(lat, 0.9))
	res.set("jobs_per_s", "1/s", float64(len(lat))/wall.Seconds())
	res.set("speedup_vs_seq", "x", seqSum/float64(len(seqWalls))/p50)
	res.set("cpu_ms_per_job", "ms", ms(cpu)/float64(res.Attempted))
	res.set("rss_peak_mb", "MiB", rssMiB)
	return res, nil
}

// runServeTraced replays the schedule twice on fresh stacks, untraced and
// then with the engine's metrics registry attached, and reports the layer
// split of the second pass and its overhead over the first.
func runServeTraced(w workload, sched []arrival, warm engine.JobSpec) (result, error) {
	spans := &spanLog{}
	env, err := serveSetup(sched, warm, nil, spans)
	if err != nil {
		return result{}, err
	}
	var untraced result
	out, _ := openLoop(sched, time.Now(), env.sender(spans))
	base := median(tally(out, &untraced))
	env.close()

	reg := trace.NewMetrics()
	env, err = serveSetup(sched, warm, reg, spans)
	if err != nil {
		return result{}, err
	}
	gs0 := readGoStats()
	out, _ = openLoop(sched, time.Now(), env.sender(spans))
	gs1 := readGoStats()
	stats := env.eng.Stats()
	env.close()

	var res result
	lat := tally(out, &res)
	res.Attempted += untraced.Attempted
	res.Failed += untraced.Failed
	res.Correct = res.Failed == 0
	recs := make([]jobRec, len(out))
	var lag []float64
	for i, s := range out {
		recs[i] = jobRec{kind: kindSubmit, spec: sched[i].Spec, lat: s.lat, res: s.res}
		lag = append(lag, ms(s.lag))
	}
	l := layerStats{recs: recs, eng: stats, reg: reg, seqWalls: wallsMS(env.refs),
		layered: func(r jobRec) bool { return r.res.Source == "run" }}
	l.fill(&res)
	n := float64(len(out))
	res.set("bench.trace_overhead_frac", "fraction", median(lat)/base-1)
	res.set("bench.gen_lag_ms_p90", "ms", percentile(lag, 0.9))
	res.set("netrun.launch_ms", "ms", 0)
	res.set("net.daemon_cpu_ms_per_job", "ms", 0)
	res.set("go.alloc_mb_per_job", "MiB", (gs1.allocBytes-gs0.allocBytes)/(1<<20)/n)
	res.set("go.gc_cpu_frac", "fraction", (gs1.gcCPU-gs0.gcCPU)/max(gs1.totalCPU-gs0.totalCPU, 1e-9))
	spans.report(w.Name)
	return res, nil
}
