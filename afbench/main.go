// Command afbench is the repository benchmark. It runs one of four
// AudioFile traffic mixes (rpc, stream, fleet, realtime) against
// in-process servers over real Unix and TCP sockets, checks every reply it
// can check, and prints its metrics by name with their units.
//
// Run it from the repository root (afbench/run.sh builds it and does so):
//
//	afbench --workload rpc --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object whose
// metrics are the end-to-end metrics listed in BENCHMARK.json; with
// --trace 1 the run is split into an untraced and a traced half and the
// metrics are the per-layer ones. Earlier lines are a human-readable
// report holding every metric the run measured. The exit code is 1 when
// an output check or a live conservation law failed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spec is the part of BENCHMARK.json the program reads: which metrics to
// print, and in which unit, for each kind of run.
type spec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// watchdog bounds a whole invocation.
const watchdog = 170 * time.Second

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string // absolute; span files go here
	sockDir  string // relative to the working directory: Unix socket paths stay short
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "traffic mix: rpc, stream, fleet or realtime")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for op mixes, block sizes, offsets and route keys")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds (a traced run splits them between its two halves)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.outDir, "outdir", ".bench_build", "directory for sockets and span files")
	flag.Parse()
	cfg.traced = trace == 1
	// A wedged server must not wedge the benchmark: give up, without a
	// result line, before a caller's 180 s limit.
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "afbench: no result after %v\n", watchdog)
		os.Exit(3)
	})
	correct, err := mainErr(&cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "afbench:", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// mainErr runs the benchmark and prints its result; it reports whether
// every check passed.
func mainErr(cfg *runConfig) (bool, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	w, ok := workloads[cfg.workload]
	if !ok {
		return false, fmt.Errorf("unknown workload %q (want rpc, stream, fleet or realtime)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return false, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return false, err
	}
	if cfg.outDir, err = filepath.Abs(cfg.outDir); err != nil {
		return false, err
	}
	wd, err := os.Getwd()
	if err != nil {
		return false, err
	}
	sock, err := os.MkdirTemp(cfg.outDir, "sock")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(sock)
	if cfg.sockDir, err = filepath.Rel(wd, sock); err != nil {
		return false, err
	}

	out, err := run(w, *cfg)
	if err != nil {
		return false, err
	}

	want := sp.EndToEnd
	if cfg.traced {
		want = sp.PerLayer
	}
	metrics := map[string]metric{}
	for _, m := range want {
		got, ok := out.rep.vals[m.Name]
		if !ok {
			return false, fmt.Errorf("BENCHMARK.json lists %s, which this run did not measure", m.Name)
		}
		if got.Unit != m.Unit {
			return false, fmt.Errorf("%s is measured in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		}
		metrics[m.Name] = got
	}

	out.rep.print(os.Stdout)
	for _, p := range out.problems {
		fmt.Println("FAIL:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.correct(), out.attempted, out.failed, metrics})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return out.correct(), nil
}

// metric is one measured value as the JSON result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is every metric a run measured, in the order it measured them.
type report struct {
	names []string
	vals  map[string]metric
}

func newReport() *report { return &report{vals: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.vals[name]; !ok {
		r.names = append(r.names, name)
	}
	r.vals[name] = metric{v, unit}
}

func (r *report) print(f *os.File) {
	width := 0
	for _, n := range r.names {
		width = max(width, len(n))
	}
	for _, n := range r.names {
		m := r.vals[n]
		fmt.Fprintf(f, "%-*s %14.4f %s\n", width, n, m.Value, m.Unit)
	}
}

// outcome is a finished run: its metrics and its correctness verdict.
type outcome struct {
	rep       *report
	attempted uint64
	failed    uint64
	// problems lists failed output checks and live-law violations; any
	// entry makes the run incorrect.
	problems []string
}

func (o *outcome) correct() bool { return o.failed == 0 && len(o.problems) == 0 }
