// Command benchmark is the repository's performance benchmark: one
// command that generates a MiniC workload from a seed, drives the analysis
// only through its public packages, checks every result against the
// generator's ground truth, and prints end-to-end metrics (--trace 0) or
// per-layer metrics from a traced replay (--trace 1).
//
// Run it from the repository root through the wrapper, which builds this
// module first:
//
//	bash benchmark/run.sh --workload cold_batch --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md in this directory
// for the workloads, the metrics and the layer-to-metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale overrides every workload's generator scale (0 = the
	// workload's own); the benchmark's test uses it to run tiny inputs.
	scale int
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps int
	// workDir holds the stores and the span file.
	workDir string
}

// result is what one invocation prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are human-readable lines printed before the JSON line.
	notes []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg := config{setupReps: 5, workDir: filepath.Join(".bench_build", "run")}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (the generated inputs are a function of it)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.Parse()
	if flag.NArg() != 0 || (trace != 0 && trace != 1) || cfg.seconds <= 0 || cfg.seed < 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (known: %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up setupReps times, keeps the last instance, and
// measures it for cfg.seconds.
func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	var (
		w      instance
		setups []float64
	)
	for i := 0; i < cfg.setupReps; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		w, err = workloads[cfg.workload](cfg)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return traceRun(cfg, w, dur)
	}
	res, err := measureEndToEnd(w, dur)
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.notes = append([]string{fmt.Sprintf("workload %s seed %d: %s", cfg.workload, cfg.seed, w.describe())}, res.notes...)
	return res, nil
}
