package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the compare step reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two --out files of untraced runs, base then change,
// per workload and end-to-end metric: each side's median and quartile
// spread, the change's median over the base's, and whether it is worse
// than the metric's bound. It refuses (exit 2) when any two runs differ in
// their machine facts.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "file with the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [--benchmark BENCHMARK.json] base.jsonl change.jsonl")
		return 2
	}
	var bf benchmarkFile
	data, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(data, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	base, err1 := readRecords(fs.Arg(0))
	change, err2 := readRecords(fs.Arg(1))
	if err := firstErr(err1, err2); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	all := append(append([]record(nil), base...), change...)
	if len(all) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench compare: no runs")
		return 2
	}
	for _, r := range all[1:] {
		if ok, field := sameMachine(all[0].Facts, r.Facts); !ok {
			fmt.Fprintf(os.Stderr, "perfbench compare: refusing: runs differ in %s (%+v vs %+v)\n", field, all[0].Facts, r.Facts)
			return 2
		}
	}

	worse := false
	for _, w := range workloadList {
		for _, m := range bf.EndToEnd {
			b, c := values(base, w.Name, m.Name), values(change, w.Name, m.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			bq, cq := quartiles(b), quartiles(c)
			ratio := cq[1] / bq[1]
			loss := ratio - 1
			if m.Better == "higher" {
				loss = 1 - ratio
			}
			verdict := "ok"
			if loss > m.Bound {
				verdict = "WORSE"
				worse = true
			}
			fmt.Fprintf(stdout, "%-20s %-16s base %10.4g [%.3f] change %10.4g [%.3f] ratio %.3f %s\n",
				w.Name, m.Name, bq[1], spread(bq), cq[1], spread(cq), ratio, verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

func values(recs []record, workload, metric string) []float64 {
	var xs []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// quartiles are the three cut points Python's statistics.quantiles(xs,
// n=4) returns (its default exclusive method); with one value all three
// are that value.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		delta := float64(i*m - j*4)
		lo := s[max(min(j-1, n-1), 0)]
		hi := s[min(j, n-1)]
		q[i-1] = (lo*(4-delta) + hi*delta) / 4
	}
	return q
}

// spread is the quartile distance as a share of the median.
func spread(q [3]float64) float64 { return (q[2] - q[0]) / q[1] }
