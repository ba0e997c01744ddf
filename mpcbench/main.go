package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
)

// Work per second of --seconds, calibrated so one run's timed phase
// lasts about --seconds on a 2-core host at the commit that defined the
// benchmark. The work is fixed by seed and seconds rather than cut off
// by a timer, so counts such as comm_facts repeat exactly.
const (
	warmQueriesPerSecond  = 700
	churnQueriesPerSecond = 110
	batchSecondsPerCycle  = 2.7
)

func warmSizes(seconds int) warmConfig {
	return warmConfig{sessions: 8, tuples: 10000, queries: warmQueriesPerSecond * seconds / 8, heavyFrac: 0.08, poolSize: 16}
}

func churnSizes(seconds int) churnConfig {
	return churnConfig{sessions: 6, vertices: 2000, edges: 2000, queries: churnQueriesPerSecond * seconds / 6, skew: 0.1}
}

const churnEpochs = 4

func batchSizes(seconds int) batchConfig {
	cycles := int(math.Round(float64(seconds) / batchSecondsPerCycle))
	if cycles < 1 {
		cycles = 1
	}
	return batchConfig{cycles: cycles, tcM: 220, gymM: 50000, cubeM: 150000}
}

var workloads = []string{"serve-warm", "serve-churn", "batch-net"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "serve-warm | serve-churn | batch-net")
	seed := fs.Int64("seed", 1, "workload seed: data, scripts and job specs are a pure function of it")
	seconds := fs.Int("seconds", 10, "length of the timed phase at reference speed")
	trace := fs.Int("trace", 0, "1: also replay the run in-process with spans and report the per-layer metrics")
	bin := fs.String("bin", "", "directory holding the mpcd and mpcrun binaries built from this checkout")
	work := fs.String("work", "", "scratch directory inside the checkout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "mpcbench: need -bin, -work, -seconds ≥ 1 and -trace 0|1 (run it through mpcbench/run.sh)")
		return 2
	}
	for _, b := range []string{"mpcd", "mpcrun"} {
		if _, err := os.Stat(filepath.Join(*bin, b)); err != nil {
			fmt.Fprintf(stderr, "mpcbench: %v\n", err)
			return 2
		}
	}
	dir := filepath.Join(*work, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "mpcbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir) // scratch only; a leftover directory is harmless
	e := env{bin: *bin, work: dir, seed: *seed, trace: *trace == 1}

	var r report
	switch *workload {
	case "serve-warm":
		runWarm(e, warmSizes(*seconds), &r)
	case "serve-churn":
		runChurn(e, churnSizes(*seconds), churnEpochs, &r)
	case "batch-net":
		runBatch(e, batchSizes(*seconds), &r)
	default:
		fmt.Fprintf(stderr, "mpcbench: unknown workload %q (want one of %v)\n", *workload, workloads)
		return 2
	}
	if r.failed > 0 {
		fmt.Fprintf(stderr, "mpcbench: %d failures, first ones:\n%s\n", r.failed, r.problemsText())
	}
	if e.trace && len(r.spans) > 0 {
		path := filepath.Join(*work, fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, *seed))
		if err := writeSpans(path, r.spans); err != nil {
			fmt.Fprintf(stderr, "mpcbench: writing spans: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "spans: %d written to %s\n", len(r.spans), path)
		}
	}
	return printReport(stdout, *workload, e, *seconds, &r)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printReport prints every end-to-end metric by name and unit with the
// sample counts, then (traced runs) the per-layer metrics, and last the
// one-line JSON result: end-to-end metrics untraced, per-layer metrics
// traced.
func printReport(w io.Writer, workload string, e env, seconds int, r *report) int {
	trace := 0
	if e.trace {
		trace = 1
	}
	fmt.Fprintf(w, "mpcbench workload=%s seed=%d seconds=%d trace=%d\n", workload, e.seed, seconds, trace)
	for _, s := range r.samples {
		fmt.Fprintf(w, "samples: %s\n", s)
	}
	fmt.Fprintf(w, "end-to-end failed_frac = %g (%d of %d ops failed)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	for _, m := range r.e2e {
		printMetric(w, "end-to-end", m)
	}
	for _, m := range r.layer {
		printMetric(w, "per-layer", m)
	}
	res := jsonResult{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric)}
	chosen := r.e2e
	if e.trace {
		chosen = r.layer
	}
	for _, m := range chosen {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			v = 0
		}
		res.Metrics[m.Name] = jsonMetric{Value: v, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpcbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	return 0
}

func printMetric(w io.Writer, kind string, m metric) {
	fmt.Fprintf(w, "%s %s = %s %s\n", kind, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
}
