// Command perfbench is the repository's benchmark: it drives one named
// workload through the engine's public entry points for a fixed time,
// checks every job's output, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer split) as one JSON line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"dsmtx/internal/netrun"
)

// processStart approximates the process start for setup_s.
var processStart = time.Now()

func main() {
	if os.Getenv(netrun.DaemonEnv) == "1" {
		// The engine re-executes this binary as its net daemons.
		os.Exit(netrun.DaemonMain())
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are the benchmark's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	check    bool
	out      string
	commit   string
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name: host-gzip, host-crc32-misspec, net-crc32, serve-mix")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every job input derives from")
	fs.Float64Var(&o.seconds, "seconds", 15, "length of the timed window")
	traceN := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	fs.BoolVar(&o.check, "check", false, "smoke mode: a few jobs through the correctness gate, exit nonzero on any miss")
	fs.StringVar(&o.out, "out", "", "append the result with its machine facts to this JSON-lines file")
	fs.StringVar(&o.commit, "commit", "unknown", "source commit recorded in the facts")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *traceN != 0 && *traceN != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", *traceN)
	}
	o.trace = *traceN == 1
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	return o, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// record is one line of an --out file: a result with what it ran on.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Facts    facts  `json:"facts"`
	Result   result `json:"result"`
}

func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	plan := fullPlan(o.seconds)
	if o.check {
		plan = smokePlan
	}
	var res result
	if w.Open {
		res, err = runServe(w, o.seed, plan, o.trace)
	} else {
		res, err = runClosed(w, o.seed, plan, o.trace)
	}
	if err != nil {
		return err
	}
	if o.check && !res.Correct {
		return fmt.Errorf("%s: %d of %d jobs failed the correctness gate", w.Name, res.Failed, res.Attempted)
	}

	f := machineFacts()
	f.Commit = o.commit
	fmt.Fprintf(stdout, "workload %s seed %d trace %v\n", w.Name, o.seed, o.trace)
	fjs, _ := json.Marshal(f)
	fmt.Fprintf(stdout, "facts %s\n", fjs)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", "error_rate", errorRate(res), "fraction")
	if o.out != "" {
		if err := appendRecord(o.out, record{Workload: w.Name, Seed: o.seed, Trace: o.trace, Facts: f, Result: res}); err != nil {
			return err
		}
	}
	js, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", js)
	return err
}

// errorRate is failed over attempted jobs: failed, refused, or
// checksum-mismatched submissions all count.
func errorRate(r result) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

func appendRecord(path string, rec record) error {
	js, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(js, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runPlan sizes one run.
type runPlan struct {
	// seconds is the timed window; a closed loop also runs until it has
	// minJobs samples, up to maxWindow.
	seconds   float64
	minJobs   int
	maxWindow time.Duration
	// setups is how many times set-up runs; setup_s is their median.
	setups int
}

func fullPlan(seconds float64) runPlan {
	return runPlan{seconds: seconds, minJobs: samplesFor(0.9), maxWindow: 120 * time.Second, setups: 3}
}

// smokePlan is the --check and test plan: a handful of jobs, one set-up.
var smokePlan = runPlan{seconds: 0.2, minJobs: 3, maxWindow: 60 * time.Second, setups: 1}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
