package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"dsmtx/internal/core"
	"dsmtx/internal/engine"
	"dsmtx/internal/mem"
	"dsmtx/internal/netrun"
	"dsmtx/internal/trace"
	"dsmtx/internal/workloads"
)

// ref is one input's sequential reference, resolved in setup.
type ref struct {
	check uint64
	wall  time.Duration
}

// input is the workload input a spec names.
func input(s engine.JobSpec) workloads.Input {
	return workloads.Input{Scale: s.Scale, Seed: s.Seed, MisspecRate: s.Rate}
}

// seqRefs runs workloads.RunSequentialRef once per distinct input among
// specs, timing each.
func seqRefs(specs []engine.JobSpec, spans *spanLog) (map[workloads.Input]ref, error) {
	refs := map[workloads.Input]ref{}
	for _, s := range specs {
		in := input(s)
		if _, ok := refs[in]; ok {
			continue
		}
		b, err := workloads.ByName(s.Bench)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		_, check, err := workloads.RunSequentialRef(b, in)
		spans.add("RunSequentialRef", t)
		if err != nil {
			return nil, fmt.Errorf("sequential reference %s seed %d: %w", s.Bench, s.Seed, err)
		}
		refs[in] = ref{check: check, wall: time.Since(t)}
	}
	return refs, nil
}

// closedSetup builds one engine for a closed-loop run: the sequential
// references, then the discarded warm-up job (which also launches the net
// daemons). It returns the engine, the references, and the set-up time
// since start.
func closedSetup(jobs []engine.JobSpec, cfg engine.Config, start time.Time, spans *spanLog) (*engine.Engine, map[workloads.Input]ref, time.Duration, error) {
	refs, err := seqRefs(jobs, spans)
	if err != nil {
		return nil, nil, 0, err
	}
	eng := engine.New(cfg)
	t := time.Now()
	res, err := eng.Submit(context.Background(), jobs[0])
	spans.add("Submit warm-up", t)
	if err == nil && res.Checksum != refs[input(jobs[0])].check {
		err = fmt.Errorf("checksum %#x, sequential reference %#x", res.Checksum, refs[input(jobs[0])].check)
	}
	if err != nil {
		eng.Close()
		return nil, nil, 0, fmt.Errorf("warm-up job %s: %w", jobs[0], err)
	}
	return eng, refs, time.Since(start), nil
}

// runClosed is one closed-loop run: one client submits the job list in
// turn, each job after the previous returns.
func runClosed(w workload, seed uint64, plan runPlan, traced bool) (result, error) {
	jobs := closedJobs(w, seed)
	if traced {
		return runClosedTraced(w, jobs, plan)
	}
	spans := &spanLog{}
	eng, refs, setup1, err := closedSetup(jobs, engine.Config{}, processStart, spans)
	if err != nil {
		return result{}, err
	}
	setups := []float64{setup1.Seconds()}
	seqWalls := wallsMS(refs)

	daemons := children()
	cpu0, child0 := cpuTime(), childCPU(daemons)
	rss := startRSS(daemons)
	var lat []float64
	var res result
	t0 := time.Now()
	for i := 1; ; i++ {
		el := time.Since(t0)
		if (el.Seconds() >= plan.seconds && len(lat) >= plan.minJobs) || el >= plan.maxWindow {
			break
		}
		job := jobs[i%len(jobs)]
		t := time.Now()
		r, err := eng.Submit(context.Background(), job)
		d := time.Since(t)
		res.Attempted++
		if err != nil || r.Checksum != refs[input(job)].check {
			res.Failed++
			continue
		}
		lat = append(lat, ms(d))
	}
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0 + childCPU(daemons) - child0
	rssMiB := rss.finish()
	eng.Close()
	if len(lat) < plan.minJobs {
		return result{}, fmt.Errorf("%s: %d verified jobs in %v, need %d for the p90 tail", w.Name, len(lat), wall, plan.minJobs)
	}

	// Further set-ups on fresh engines, after the timed window so the timed
	// engine is the process's first.
	for len(setups) < plan.setups {
		e, more, took, err := closedSetup(jobs, engine.Config{}, time.Now(), spans)
		if err != nil {
			return result{}, err
		}
		e.Close()
		setups = append(setups, took.Seconds())
		seqWalls = append(seqWalls, wallsMS(more)...)
	}

	res.Correct = res.Failed == 0
	p50 := median(lat)
	res.set("setup_s", "s", median(setups))
	res.set("job_ms_p50", "ms", p50)
	res.set("job_ms_p90", "ms", percentile(lat, 0.9))
	res.set("jobs_per_s", "1/s", float64(len(lat))/wall.Seconds())
	res.set("speedup_vs_seq", "x", median(seqWalls)/p50)
	res.set("cpu_ms_per_job", "ms", ms(cpu)/float64(res.Attempted))
	res.set("rss_peak_mb", "MiB", rssMiB)
	return res, nil
}

func wallsMS(refs map[workloads.Input]ref) []float64 {
	var out []float64
	for _, r := range refs {
		out = append(out, ms(r.wall))
	}
	return out
}

// Traced closed-loop job kinds, interleaved so all see the same machine
// state: the engine path the untraced run times, and direct runs through
// workloads.RunParallelSystems without and with the metrics-only tracer
// (the net backend runs only through the engine, so there the traced kind
// is Submit with Options.Tracer).
const (
	kindSubmit = iota
	kindDirect
	kindTraced
	numKinds
)

// jobRec is one traced-run job.
type jobRec struct {
	kind       int
	spec       engine.JobSpec
	lat        time.Duration
	build, run time.Duration // direct kinds: factory and System.Run spans
	res        engine.Result
	reg        *trace.Metrics // traced kind
	iterations uint64
}

func runClosedTraced(w workload, jobs []engine.JobSpec, plan runPlan) (result, error) {
	spans := &spanLog{}
	reg := trace.NewMetrics()
	eng, refs, _, err := closedSetup(jobs, engine.Config{Metrics: reg}, processStart, spans)
	if err != nil {
		return result{}, err
	}
	defer eng.Close()
	net := w.Template.Backend == "net"
	var launch time.Duration
	if net {
		// The engine launched its fleet inside the warm-up job; time
		// LaunchLocal on its own for the per-layer split.
		t := time.Now()
		cl, err := netrun.LaunchLocal(2, os.Args[0])
		launch = time.Since(t)
		spans.add("LaunchLocal", t)
		if err != nil {
			return result{}, err
		}
		cl.Close()
	}
	iters := map[workloads.Input]uint64{}
	for _, j := range jobs {
		b, err := workloads.ByName(j.Bench)
		if err != nil {
			return result{}, err
		}
		iters[input(j)] = b.NewDSMTX(input(j), 0).Iterations()
	}

	daemons := children()
	child0, gs0 := childCPU(daemons), readGoStats()
	var recs []jobRec
	var res result
	count := [numKinds]int{}
	t0 := time.Now()
	for i := 1; ; i++ {
		el := time.Since(t0)
		if (el.Seconds() >= plan.seconds && minCount(count, net) >= plan.minJobs/numKinds) || el >= plan.maxWindow {
			break
		}
		job := jobs[i%len(jobs)]
		kind := i % numKinds
		if net && kind == kindDirect {
			kind = kindSubmit
		}
		rec, err := tracedJob(eng, job, kind, spans)
		res.Attempted++
		if err != nil || rec.res.Checksum != refs[input(job)].check {
			res.Failed++
			continue
		}
		rec.iterations = iters[input(job)]
		count[kind]++
		recs = append(recs, rec)
	}
	gs1 := readGoStats()

	res.Correct = res.Failed == 0
	l := layerStats{recs: recs, eng: eng.Stats(), reg: reg, seqWalls: wallsMS(refs),
		layered: func(r jobRec) bool { return r.kind == kindTraced }}
	l.fill(&res)
	untraced := kindDirect
	if net {
		untraced = kindSubmit
	}
	res.set("bench.trace_overhead_frac", "fraction", l.p50(kindTraced, latOf)/l.p50(untraced, latOf)-1)
	res.set("netrun.launch_ms", "ms", ms(launch))
	res.set("net.daemon_cpu_ms_per_job", "ms", 0)
	if net {
		res.set("net.daemon_cpu_ms_per_job", "ms", ms(childCPU(daemons)-child0)/float64(res.Attempted))
	}
	res.set("go.alloc_mb_per_job", "MiB", (gs1.allocBytes-gs0.allocBytes)/(1<<20)/float64(res.Attempted))
	res.set("go.gc_cpu_frac", "fraction", (gs1.gcCPU-gs0.gcCPU)/max(gs1.totalCPU-gs0.totalCPU, 1e-9))
	res.set("bench.gen_lag_ms_p90", "ms", 0)
	spans.report(w.Name)
	return res, nil
}

func minCount(c [numKinds]int, net bool) int {
	m := c[kindSubmit]
	for k, n := range c {
		if net && k == kindDirect {
			continue
		}
		m = min(m, n)
	}
	return m
}

// tracedJob runs one job of the given kind.
func tracedJob(eng *engine.Engine, job engine.JobSpec, kind int, spans *spanLog) (jobRec, error) {
	rec := jobRec{kind: kind, spec: job}
	t := time.Now()
	switch {
	case kind == kindSubmit:
		r, err := eng.Submit(context.Background(), job)
		spans.add("Submit", t)
		rec.res = r
		rec.lat = time.Since(t)
		return rec, err
	case job.Backend == "net":
		tr := trace.NewMetricsOnly()
		r, err := eng.SubmitOpts(context.Background(), job, engine.Options{Tracer: tr})
		spans.add("Submit traced", t)
		rec.res, rec.reg = r, tr.Metrics()
		rec.lat = time.Since(t)
		return rec, err
	}
	b, err := workloads.ByName(job.Bench)
	if err != nil {
		return rec, err
	}
	var tr *trace.Tracer
	if kind == kindTraced {
		tr = trace.NewMetricsOnly()
		rec.reg = tr.Metrics()
	}
	tune := func(cfg *core.Config) {
		cfg.Backend = core.BackendHost
		cfg.Tracer = tr
	}
	var runStart time.Time
	factory := func(cfg core.Config, prog workloads.Program, img *mem.Image) (*core.System, error) {
		bt := time.Now()
		sys, err := core.NewSystem(cfg, prog, img)
		rec.build += time.Since(bt)
		spans.add("SystemFactory", bt)
		runStart = time.Now()
		return sys, err
	}
	r, err := workloads.RunParallelSystems(b, input(job), workloads.DSMTX, job.Cores, tune, factory)
	rec.run = time.Since(runStart)
	spans.add("System.Run", runStart)
	spans.add("RunParallelSystems", t)
	rec.lat = time.Since(t)
	rec.res = engine.Result{Result: r}
	return rec, err
}
