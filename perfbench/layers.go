package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"dsmtx/internal/engine"
	"dsmtx/internal/trace"
)

// layerStats derives the per-layer metrics of a traced run from what the
// program exposes: engine.Stats, the engine's registry, each job's Result
// and StallReport, and the registries of metrics-only tracers.
type layerStats struct {
	recs     []jobRec
	eng      engine.Stats
	reg      *trace.Metrics // the engine's registry
	seqWalls []float64
	// layered picks the jobs the core, memory, queue and transport
	// metrics average over (the traced kind; on serve-mix, jobs that ran).
	layered func(jobRec) bool
}

func latOf(r jobRec) float64   { return ms(r.lat) }
func buildOf(r jobRec) float64 { return ms(r.build) }
func runOf(r jobRec) float64   { return ms(r.run) }

// p50 is the median of f over the jobs of one kind.
func (l *layerStats) p50(kind int, f func(jobRec) float64) float64 {
	var xs []float64
	for _, r := range l.recs {
		if r.kind == kind {
			xs = append(xs, f(r))
		}
	}
	return median(xs)
}

// perJob averages f over the layered jobs.
func (l *layerStats) perJob(f func(jobRec) float64) float64 {
	var sum float64
	n := 0
	for _, r := range l.recs {
		if l.layered(r) {
			sum += f(r)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func counter(name string) func(jobRec) float64 {
	return func(r jobRec) float64 { return float64(r.reg.Counter(name).Value()) }
}

// stall sums one StallReport column over a job's rows, in ms.
func stall(col func(trace.StallRow) int64) func(jobRec) float64 {
	return func(r jobRec) float64 {
		var sum int64
		for _, row := range r.res.Stalls.Rows {
			sum += col(row)
		}
		return ms(time.Duration(sum))
	}
}

func (l *layerStats) fill(res *result) {
	var submitted, hits, coalesced float64
	var overhead []float64
	for _, r := range l.recs {
		if r.kind != kindSubmit {
			continue
		}
		submitted++
		switch r.res.Source {
		case "cache":
			hits++
		case "coalesced":
			coalesced++
		case "run":
			if r.spec.Backend != "vtime" {
				overhead = append(overhead, ms(r.lat-time.Duration(r.res.Elapsed)))
			}
		}
	}
	res.set("engine.submit_ms_p50", "ms", l.p50(kindSubmit, latOf))
	res.set("engine.overhead_ms_p50", "ms", median(overhead))
	res.set("engine.cache_hit_frac", "fraction", hits/max(submitted, 1))
	res.set("engine.coalesced_frac", "fraction", coalesced/max(submitted, 1))
	res.set("engine.queued_max", "count", float64(l.reg.Gauge("engine.jobs.queued").Max()))
	res.set("engine.rejected", "count", float64(l.eng.Rejected))
	res.set("engine.pool_reuse_frac", "fraction",
		float64(l.eng.PoolReuses)/max(float64(l.eng.PoolReuses+l.eng.PoolBuilds), 1))
	res.set("workloads.seq_ms_p50", "ms", median(l.seqWalls))
	res.set("core.build_ms_p50", "ms", l.p50(kindDirect, buildOf))
	res.set("core.run_ms_p50", "ms", l.p50(kindDirect, runOf))

	res.set("core.misspecs_per_job", "count", l.perJob(func(r jobRec) float64 { return float64(r.res.Misspecs) }))
	res.set("core.useful_frac", "fraction", l.perJob(func(r jobRec) float64 {
		return float64(r.iterations) / max(float64(r.res.Committed), 1)
	}))
	phase := func(name string, d func(jobRec) int64) {
		res.set(name, "ms", l.perJob(func(r jobRec) float64 { return ms(time.Duration(d(r))) }))
	}
	phase("core.erm_ms", func(r jobRec) int64 { return int64(r.res.ERM) })
	phase("core.flq_ms", func(r jobRec) int64 { return int64(r.res.FLQ) })
	phase("core.seq_ms", func(r jobRec) int64 { return int64(r.res.SEQ) })
	phase("core.rfp_ms", func(r jobRec) int64 { return int64(r.res.RFP) })
	res.set("core.starvation_ms", "ms", l.perJob(stall(func(s trace.StallRow) int64 { return int64(s.Starvation) })))
	res.set("core.backpressure_ms", "ms", l.perJob(stall(func(s trace.StallRow) int64 { return int64(s.Backpressure) })))
	res.set("core.verdict_wait_ms", "ms", l.perJob(stall(func(s trace.StallRow) int64 { return int64(s.VerdictWait) })))
	res.set("core.recovery_stall_ms", "ms", l.perJob(stall(func(s trace.StallRow) int64 { return int64(s.Recovery) })))
	res.set("host.park_ms", "ms", l.perJob(stall(func(s trace.StallRow) int64 { return int64(s.Park) })))

	res.set("mem.pages_faulted", "count", l.perJob(counter("mem.pages.faulted")))
	requests := l.perJob(counter("coa.requests"))
	served := l.perJob(counter("coa.pages.served"))
	res.set("coa.requests", "count", requests)
	res.set("coa.pages_served", "count", served)
	res.set("coa.pages_per_request", "count", served/max(requests, 1))
	res.set("queue.produced", "count", l.perJob(counter("queue.produced")))
	res.set("queue.flush_items_mean", "count", l.perJob(func(r jobRec) float64 { return r.reg.Histogram("queue.flush.items").Mean() }))
	res.set("queue.flush_bytes_mean", "bytes", l.perJob(func(r jobRec) float64 { return r.reg.Histogram("queue.flush.bytes").Mean() }))
	res.set("traffic.page_bytes_per_job", "bytes", l.perJob(func(r jobRec) float64 { return float64(r.res.Traffic.PageBytes) }))
	res.set("traffic.queue_bytes_per_job", "bytes", l.perJob(func(r jobRec) float64 { return float64(r.res.Traffic.QueueBytes) }))
	res.set("traffic.queue_msgs_per_job", "count", l.perJob(func(r jobRec) float64 { return float64(r.res.Traffic.QueueMessages) }))
	for _, c := range []struct{ metric, name string }{
		{"host.recv_park", "host.recv.park"},
		{"host.recv_spin", "host.recv.spin"},
		{"host.recv_wake", "host.recv.wake"},
		{"host.ring_spill", "host.ring.spill"},
		{"host.ring_cas_retry", "host.ring.cas.retry"},
	} {
		res.set(c.metric, "count", l.perJob(counter(c.name)))
	}
	res.set("host.park_ns_mean", "ns", l.perJob(func(r jobRec) float64 { return r.reg.Histogram("host.recv.park.ns").Mean() }))

	var msgs, bytes float64
	var netLat []float64
	for _, r := range l.recs {
		if l.layered(r) && r.res.Daemons > 0 {
			msgs += float64(r.res.Traffic.Messages)
			bytes += float64(r.res.Traffic.Bytes)
			netLat = append(netLat, ms(r.lat))
		}
	}
	n := max(float64(len(netLat)), 1)
	res.set("net.msgs_per_job", "count", msgs/n)
	res.set("net.bytes_per_job", "bytes", bytes/n)
	res.set("net.ms_per_msg", "ms", median(netLat)/max(msgs/n, 1))

	var events, eventWall float64
	for _, r := range l.recs {
		if r.res.Source == "run" && r.spec.Backend == "vtime" {
			events += float64(r.res.Events)
			eventWall += r.lat.Seconds()
		}
	}
	res.set("sim.events_per_s", "1/s", events/max(eventWall, 1e-9))
}

// spanLog keeps the benchmark's own spans around each public call in
// memory and summarises them when the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

type span struct {
	name       string
	start, end time.Time
}

func (s *spanLog) add(name string, start time.Time) {
	end := time.Now()
	s.mu.Lock()
	s.spans = append(s.spans, span{name: name, start: start, end: end})
	s.mu.Unlock()
}

// report writes per-call span counts, totals and medians to stderr.
func (s *spanLog) report(workload string) {
	by := map[string][]float64{}
	for _, sp := range s.spans {
		by[sp.name] = append(by[sp.name], ms(sp.end.Sub(sp.start)))
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "spans (%s):\n", workload)
	for _, n := range names {
		var total float64
		for _, d := range by[n] {
			total += d
		}
		fmt.Fprintf(os.Stderr, "  %-20s n=%-5d total=%10.1fms p50=%8.2fms\n", n, len(by[n]), total, median(by[n]))
	}
}
