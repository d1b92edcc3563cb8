package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Machine-readable benchmark results. parseBench converts the textual
// output of `go test -bench` (or the committed bench_output.txt) into a
// JSON summary, so CI can publish numbers that tooling can diff without
// scraping the test log.

// benchResult is one benchmark line in the JSON summary.
type benchResult struct {
	Pkg        string  `json:"pkg,omitempty"`
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	MBPerS     float64 `json:"mb_per_s,omitempty"`
	// Nil when the run had no -benchmem; a measured zero is kept.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// benchSummary is the top-level JSON document.
type benchSummary struct {
	Goos       string        `json:"goos,omitempty"`
	Goarch     string        `json:"goarch,omitempty"`
	CPU        string        `json:"cpu,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// parseBench reads go-test benchmark output and returns the summary.
func parseBench(rd io.Reader) (*benchSummary, error) {
	s := &benchSummary{Benchmarks: []benchResult{}}
	pkg := ""
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			s.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			s.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			s.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. a "Benchmark... SKIP" line
		}
		r := benchResult{Pkg: pkg, Name: fields[0], Iterations: iters}
		// The rest of the line is value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "MB/s":
				r.MBPerS = v
			case "B/op":
				r.BytesPerOp = &v
			case "allocs/op":
				r.AllocsPerOp = &v
			}
		}
		s.Benchmarks = append(s.Benchmarks, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// writeBenchJSON parses the benchmark text file at in and writes the JSON
// summary to out ("-" for stdout).
func writeBenchJSON(in, out string) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	s, err := parseBench(f)
	if err != nil {
		return err
	}
	if len(s.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in %s", in)
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}
