// Command perfbench is the repository benchmark. It drives the DRTP
// simulator and control plane from outside, through their public
// functions, on one of three seeded workloads, checks that the outputs are
// correct and prints the metrics named in BENCHMARK.json.
//
//	bash perfbench/run.sh --workload fig4-paper --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload once untraced and once with spans recorded around every
// call into a layer, and prints the per-layer metrics. The last line of
// standard output is one JSON object; the lines before it repeat every
// metric, the workload-specific ones too, in readable form. WORKLOADS.md
// documents the workloads and the metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// options is what one run is asked to do.
type options struct {
	seed    int64
	seconds float64
	outdir  string
	// small shrinks every input so the benchmark's own tests finish in
	// seconds; it is not reachable from the command line.
	small bool
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// measure runs untraced and reports the end-to-end metrics.
	measure func(o options) (*report, error)
	// traced runs untraced once and traced once and reports the
	// per-layer metrics.
	traced func(o options) (*report, error)
}

// networkSeed generates every workload's topology. The network is part
// of a workload's definition, as the paper evaluates one network per
// degree; --seed generates what runs on it: traffic, failure schedules and
// client request pairs.
const networkSeed = 1

var workloads = []workload{
	{name: "fig4-paper", measure: fig4.measure, traced: fig4.traced},
	{name: "scale-churn", measure: scale.measure, traced: scale.traced},
	{name: "cp-tcp", measure: measureCP, traced: traceCP},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the arguments, runs the workload and prints its report. It
// returns 0 when every correctness check passed, 1 when one failed (the
// report is still printed) and 2 when the run could not complete (nothing
// is printed on stdout).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig4-paper, scale-churn or cp-tcp")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	outdir := fs.String("outdir", ".bench_build", "directory for the span dump of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload fig4-paper|scale-churn|cp-tcp, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, outdir: *outdir}
	start := time.Now()
	var (
		rep *report
		err error
	)
	if *trace == 1 {
		rep, err = w.traced(o)
	} else {
		rep, err = w.measure(o)
	}
	if err == nil {
		want := endToEnd
		if *trace == 1 {
			want = perLayer
		}
		err = rep.checkNames(want)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	fmt.Fprintf(stdout, "# workload %s seed %d trace %d wall %.1fs\n", w.name, o.seed, *trace, time.Since(start).Seconds())
	if err := rep.write(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if !rep.correct() {
		return 1
	}
	return 0
}
