package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"dsmtx/internal/engine"
)

// workload is one named input set the benchmark drives. Closed-loop
// workloads submit Template with per-job seeds through Engine.Submit, one
// client at a time; the open-loop serve-mix workload posts a Poisson
// schedule to the HTTP handler.
type workload struct {
	Name string
	// Template is the closed-loop job shape; Seed is filled per input.
	Template engine.JobSpec
	// Open marks the open-loop serving workload.
	Open bool
}

// closedInputs is how many distinct inputs (seeds) one closed-loop run
// cycles through. Each needs a sequential reference in set-up, so it bounds
// set-up time; the closed-loop engines have no result cache, so a repeated
// spec runs in full.
const closedInputs = 8

var workloadList = []workload{
	{Name: "host-gzip", Template: engine.JobSpec{
		Bench: "164.gzip", Backend: "host", Cores: 8, Scale: 2}},
	{Name: "host-crc32-misspec", Template: engine.JobSpec{
		Bench: "crc32", Backend: "host", Cores: 16, Scale: 2, Rate: 0.02}},
	{Name: "net-crc32", Template: engine.JobSpec{
		Bench: "crc32", Backend: "net", Cores: 16, Scale: 1}},
	{Name: "serve-mix", Open: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloadList {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloadList))
	for i, w := range workloadList {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// newRand is the one deterministic generator every input derives from;
// stream separates independent uses of one run seed.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// inputSeed draws a nonzero workload input seed.
func inputSeed(r *rand.Rand) uint64 { return r.Uint64()>>1 | 1 }

// closedJobs is the closed-loop job list of one run: closedInputs distinct
// specs, submitted in this order and then cycled.
func closedJobs(w workload, seed uint64) []engine.JobSpec {
	r := newRand(seed, 1)
	jobs := make([]engine.JobSpec, closedInputs)
	for i := range jobs {
		jobs[i] = w.Template
		jobs[i].Seed = inputSeed(r)
	}
	return jobs
}

// Serve-mix shape. The offered rate and repeat share are fixed here and
// recorded in the notes; a change to either is a new workload.
const (
	// serveRate is the offered Poisson rate in jobs per second.
	serveRate = 16.0
	// serveRepeatShare is the exact share of submissions that repeat an
	// earlier spec. It sits well above one half so the median lands inside
	// the repeat (cache) mode and the 90th percentile inside the
	// run-to-completion mode, instead of on the edge between them.
	serveRepeatShare = 0.75
)

// serveKinds are the serve-mix job shapes: vtime figure points at 32 cores
// and small live host jobs, all verified against the sequential reference.
// The vtime 164.gzip and swaptions points are left out: their misses cost
// 2-5x the others and put the p90 on the edge between cost groups.
var serveKinds = []engine.JobSpec{
	{Bench: "crc32", Backend: "vtime", Paradigm: "DSMTX", Cores: 32, Scale: 1, Verify: true},
	{Bench: "blackscholes", Backend: "vtime", Paradigm: "DSMTX", Cores: 32, Scale: 1, Verify: true},
	{Bench: "crc32", Backend: "host", Paradigm: "DSMTX", Cores: 4, Scale: 1, Verify: true},
	{Bench: "blackscholes", Backend: "host", Paradigm: "DSMTX", Cores: 4, Scale: 1, Verify: true},
}

// arrival is one scheduled serve-mix submission.
type arrival struct {
	At   time.Duration // send time after the schedule starts
	Spec engine.JobSpec
}

// serveSchedule is the open-loop schedule of one run: at least minJobs
// arrivals (enough for the p90 tail in a full run), spread as a Poisson
// process over the window (uniform times conditioned on the count). The
// mix is stratified so runs differ in inputs and timing but not in
// composition: an exact serveRepeatShare of arrivals repeat a uniformly
// chosen distinct earlier spec, and fresh arrivals cover the kinds in equal
// numbers, in shuffled order. Kinds sharing a benchmark share its input
// seeds, as clients asking for one dataset under two configurations would.
func serveSchedule(seed uint64, seconds float64, minJobs int) []arrival {
	r := newRand(seed, 2)
	n := max(int(math.Ceil(serveRate*seconds)), minJobs, 1)
	window := time.Duration(seconds * float64(time.Second))
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(r.Int64N(int64(window)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })

	// Exactly round(share*n) repeats. Fresh arrivals sit at evenly spaced
	// positions, the first among them, so the gap between two runs is a sum
	// of several Poisson gaps and runs rarely pile up by chance.
	fresh := max(n-int(math.Round(serveRepeatShare*float64(n))), 1)
	repeat := make([]bool, n)
	for i := range repeat {
		repeat[i] = true
	}
	for i := range fresh {
		repeat[i*n/fresh] = false
	}
	var kinds []engine.JobSpec
	for i := range n {
		if !repeat[i] {
			kinds = append(kinds, serveKinds[len(kinds)%len(serveKinds)])
		}
	}
	r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	seeds := map[string][]uint64{}
	used := map[string]int{}
	var distinct []engine.JobSpec
	out := make([]arrival, n)
	for i := range out {
		out[i].At = at[i]
		if repeat[i] {
			out[i].Spec = distinct[r.IntN(len(distinct))]
			continue
		}
		k := kinds[len(distinct)]
		key := k.Bench + "/" + k.Backend
		round := used[key]
		used[key]++
		for len(seeds[k.Bench]) <= round {
			seeds[k.Bench] = append(seeds[k.Bench], inputSeed(r))
		}
		k.Seed = seeds[k.Bench][round]
		out[i].Spec = k
		distinct = append(distinct, k)
	}
	return out
}

// warmupSpec is the serve-mix warm-up job, on a seed the schedule does not
// use, so discarding it leaves the schedule's cache behaviour intact.
func warmupSpec(seed uint64) engine.JobSpec {
	s := serveKinds[0]
	s.Seed = inputSeed(newRand(seed, 3))
	return s
}
