// Command perfbench is the CAPES control-loop benchmark. One run drives
// one seeded workload through the real loop in-process over loopback —
// node agents → capesd session → DRL engine → actions back to the
// control agent, or, for cluster-train, a leader and a follower engine
// exchanging gradients and parameters — checks the outputs, and prints
// its metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1100, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer ones, taken from a traced run whose spans are
// written under -spans-dir. See README.md for the workloads, the
// metric→layer map and how to reproduce a run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"capes/internal/tensor"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's figures by name.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the final output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// check is one output check; a failed check makes the run incorrect and
// the command exit non-zero.
type check struct {
	name string
	ok   bool
	info string
}

type checks []check

func (c *checks) add(name string, ok bool, format string, args ...any) {
	*c = append(*c, check{name, ok, fmt.Sprintf(format, args...)})
}

func (c checks) ok() bool {
	for _, ch := range c {
		if !ch.ok {
			return false
		}
	}
	return true
}

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
	// The set-up is repeated at least setups times and for at least
	// setupFor; setup_s is the median of the timed set-ups.
	setups   int
	setupFor time.Duration
}

// A run times at least setupRuns set-ups over at least setupPhase. The
// phase spans seconds, not a burst of a few set-ups, so a short stretch
// of host load does not set the median.
const (
	setupRuns  = 21
	setupPhase = 3 * time.Second
)

// timeSetups calls setup until it has run o.setups times and o.setupFor
// has passed, timing each call, and tears down every set-up but the
// last, which it returns with the timings in seconds.
func timeSetups[T any](o options, setup func() (T, error), teardown func(T) error) (T, []float64, error) {
	var ds []float64
	start := time.Now()
	for {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return v, nil, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		if len(ds) >= o.setups && time.Since(start) >= o.setupFor {
			return v, ds, nil
		}
		if err := teardown(v); err != nil {
			return v, nil, err
		}
	}
}

// runOutput is what a workload run hands back to main.
type runOutput struct {
	res    result
	checks checks
	notes  []string // human-readable lines printed before the result
}

var workloadNames = []string{"paper-rig", "ingest-heavy", "cluster-train"}

func run(o options) (*runOutput, error) {
	switch o.workload {
	case "cluster-train":
		return runClusterTrain(o)
	default:
		w, ok := agentWorkloads[o.workload]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
		}
		return runAgentWorkload(w, o)
	}
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "paper-rig", fmt.Sprintf("workload: %v", workloadNames))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (inputs only)")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured phase length in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.spansDir, "spans-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", trace))
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	o.setups, o.setupFor = setupRuns, setupPhase
	if o.trace {
		o.spansDir = filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	}

	out, err := run(o)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d kernel_tier=%s\n",
		o.workload, o.seed, o.seconds, trace, tensor.KernelTier())
	for _, n := range out.notes {
		fmt.Println("perfbench:", n)
	}
	names := make([]string, 0, len(out.res.Metrics))
	for n, m := range out.res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fatal(fmt.Errorf("metric %s is not finite", n))
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.res.Metrics[n]
		fmt.Printf("  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, c := range out.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Printf("  check %s %-28s %s\n", status, c.name, c.info)
	}
	out.res.Correct = out.checks.ok()
	line, err := json.Marshal(out.res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.res.Correct {
		os.Exit(1)
	}
}

func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
