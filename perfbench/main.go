// Command perfbench is the repository benchmark: three seeded workloads
// driven by one closed-loop caller (the next operation starts only when
// the previous one returns, as a backup job or a restoring user does),
// each checked for correctness, each printing the end-to-end metrics of
// BENCHMARK.json. With -trace 1 it instead prints the per-layer metrics,
// measured by spans around the benchmark's own calls into each package
// and by the counters the program already exports. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "ingest-local, ingest-cluster-r2 or restore-seek")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed generates the same input bytes")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase")
		traced   = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
		workdir  = flag.String("workdir", filepath.Join(".bench_build", "perfbench", "work"), "working directory for store directories and the span file")
	)
	flag.Parse()
	cfg, err := defaultConfig(*workload)
	if err == nil && (*traced < 0 || *traced > 1) {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("-seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg.seed, cfg.seconds, cfg.trace, cfg.workdir = *seed, *seconds, *traced == 1, *workdir

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil {
			os.Exit(1)
		}
		res.Correct = false
	}
	out, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", merr)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the one-line JSON document the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload in a fresh working directory and returns its
// result. A non-nil error with a non-nil result is a correctness failure
// found after the measurements were taken.
func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := &bench{cfg: cfg, dir: dir, tr: newTracer(cfg.trace)}
	switch cfg.workload {
	case "ingest-local", "ingest-cluster-r2":
		err = b.runIngest()
	case "restore-seek":
		err = b.runRestoreSeek()
	}
	if b.m.attempted == 0 {
		// Nothing was measured: there is no result to print.
		if err == nil {
			err = fmt.Errorf("no operation was attempted")
		}
		return nil, err
	}
	res := &result{Correct: err == nil, Attempted: b.m.attempted, Failed: b.m.failed}
	if cfg.trace {
		res.Metrics = b.layerMetrics()
		path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
		if werr := b.tr.write(path); werr != nil && err == nil {
			err = werr
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(b.tr.spans), path)
	} else {
		res.Metrics = b.endToEnd()
	}
	b.logSummary(os.Stderr)
	return res, err
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
