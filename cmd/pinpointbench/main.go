// Command pinpointbench is the load harness for the analysis service: it
// drives POST /v1/analyze on a running `pinpoint serve` process with
// declarative scenarios (cold builds, warm single-function edits, burst
// arrivals, mixed checker sets) and reports client-observed latency
// percentiles next to the server's own phase-attributed timing breakdown.
//
// Usage:
//
//	pinpointbench -addr http://127.0.0.1:8972 [-scenario edit] [-spec f.json]
//	              [-clients N] [-rate R] [-duration 10s] [-requests N]
//	              [-checkers a,b] [-subject name] [-scale N] [-seed N]
//	              [-timeout 60s] [-csv samples.csv] [-json summary.json]
//	              [-sweep 1,2,4,8] [-sweep-step 5s] [-allow-errors]
//	              [-slo-target 100ms] [-slo-p 0.95] [-slo-max-burn 1]
//
// Two disciplines are supported. Closed-loop (the scenario default) models
// a fixed population of clients that wait for each response; open-loop
// (-rate, or an open arrival process in the spec) offers load on a
// schedule that ignores completions, which is the discipline that exposes
// queueing collapse. -sweep runs an open-loop Poisson ladder over the
// given rates and reports the saturation knee: the highest offered rate
// the service sustained with zero errors and achieved throughput within
// 5% of offered.
//
// The exit status is nonzero if any request failed (unless -allow-errors),
// so a short pinpointbench run doubles as a CI smoke gate. -slo-target
// evaluates a latency objective over the run (reported as a burn rate in
// the summary and JSON output); -slo-max-burn turns it into a gate that
// fails the run when the burn rate exceeds the bound.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

func main() {
	var (
		addr        = flag.String("addr", "", "base URL of the analysis service (required), e.g. http://127.0.0.1:8972")
		scenario    = flag.String("scenario", "edit", "built-in scenario: "+strings.Join(loadgen.BuiltinNames(), ", "))
		specPath    = flag.String("spec", "", "JSON scenario spec file (overrides -scenario)")
		clients     = flag.Int("clients", 0, "override every client group's concurrency")
		rate        = flag.Float64("rate", 0, "switch the first client group to open-loop Poisson arrivals at this rate (req/s)")
		duration    = flag.Duration("duration", 10*time.Second, "run duration (0 = run until -requests budgets drain)")
		requests    = flag.Int("requests", 0, "per-group request budget (0 = bounded by -duration)")
		checkers    = flag.String("checkers", "", "comma-separated checker override for every group")
		subject     = flag.String("subject", "", "workload subject name (default: synthetic serve subject)")
		scale       = flag.Int("scale", 0, "workload scale override (generated lines per paper KLoC)")
		seed        = flag.Int64("seed", 0, "workload + arrival-process seed")
		timeout     = flag.Duration("timeout", 60*time.Second, "per-request timeout")
		csvPath     = flag.String("csv", "", "write per-request samples as CSV to this file")
		jsonPath    = flag.String("json", "", "write the JSON summary (or sweep result) to this file")
		sweep       = flag.String("sweep", "", "comma-separated offered rates for a saturation sweep (req/s)")
		sweepStep   = flag.Duration("sweep-step", 5*time.Second, "duration of each sweep rung")
		allowErrors = flag.Bool("allow-errors", false, "exit 0 even if some requests failed")
		sloTarget   = flag.Duration("slo-target", 0, "evaluate a latency objective over the run: the -slo-p fraction of requests must finish within this duration (0 = no SLO evaluation)")
		sloP        = flag.Float64("slo-p", 0.95, "SLO quantile for -slo-target")
		sloMaxBurn  = flag.Float64("slo-max-burn", 0, "exit 1 if the run's SLO burn rate exceeds this bound (0 = report only)")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "pinpointbench: -addr is required")
		flag.Usage()
		os.Exit(2)
	}

	spec, err := resolveSpec(*specPath, *scenario)
	if err != nil {
		fatal(err)
	}
	applyOverrides(spec, *clients, *rate, *requests, *checkers, *subject, *scale, *seed)
	if err := spec.Validate(); err != nil {
		fatal(err)
	}

	opts := loadgen.Options{
		BaseURL:  *addr,
		Duration: *duration,
		Timeout:  *timeout,
		Seed:     *seed,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *sweep != "" {
		rates, err := parseRates(*sweep)
		if err != nil {
			fatal(err)
		}
		sr, err := loadgen.Sweep(ctx, spec, opts, rates, *sweepStep)
		if err != nil {
			fatal(err)
		}
		printSweep(sr)
		if *jsonPath != "" {
			if err := writeJSONFile(*jsonPath, func(f *os.File) error {
				return writeIndented(f, sr)
			}); err != nil {
				fatal(err)
			}
		}
		return
	}

	res, err := loadgen.Run(ctx, spec, opts)
	if err != nil {
		fatal(err)
	}
	sum := loadgen.Summarize(res)
	if *sloTarget > 0 {
		rep := loadgen.EvalSLO(res, sloTarget.Nanoseconds(), *sloP)
		sum.SLO = &rep
	}
	printSummary(sum)

	if *csvPath != "" {
		if err := writeJSONFile(*csvPath, func(f *os.File) error {
			return loadgen.WriteCSV(f, res)
		}); err != nil {
			fatal(err)
		}
	}
	if *jsonPath != "" {
		if err := writeJSONFile(*jsonPath, func(f *os.File) error {
			return loadgen.WriteSummaryJSON(f, sum)
		}); err != nil {
			fatal(err)
		}
	}
	if sum.Errors > 0 && !*allowErrors {
		fmt.Fprintf(os.Stderr, "pinpointbench: %d of %d requests failed\n", sum.Errors, sum.Requests)
		os.Exit(1)
	}
	if sum.SLO != nil && *sloMaxBurn > 0 && sum.SLO.BurnRate > *sloMaxBurn {
		fmt.Fprintf(os.Stderr, "pinpointbench: SLO burn rate %.2f exceeds -slo-max-burn %.2f (p%g target %s, %d violations)\n",
			sum.SLO.BurnRate, *sloMaxBurn, sum.SLO.Quantile*100, time.Duration(sum.SLO.TargetNs), sum.SLO.Violations)
		os.Exit(1)
	}
}

func resolveSpec(specPath, scenario string) (*loadgen.Spec, error) {
	if specPath != "" {
		return loadgen.LoadSpec(specPath)
	}
	s, ok := loadgen.Builtin(scenario)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q (built-ins: %s)", scenario, strings.Join(loadgen.BuiltinNames(), ", "))
	}
	return s, nil
}

func applyOverrides(spec *loadgen.Spec, clients int, rate float64, requests int, checkers, subject string, scale int, seed int64) {
	if subject != "" {
		spec.Subject.Name = subject
	}
	if scale > 0 {
		spec.Subject.Scale = scale
	}
	if seed != 0 {
		spec.Subject.Seed = seed
	}
	var checkerList []string
	if checkers != "" {
		for _, c := range strings.Split(checkers, ",") {
			if c = strings.TrimSpace(c); c != "" {
				checkerList = append(checkerList, c)
			}
		}
	}
	for i := range spec.Clients {
		c := &spec.Clients[i]
		if clients > 0 {
			c.Count = clients
		}
		if requests > 0 {
			c.Requests = requests
		}
		if checkerList != nil {
			c.Checkers = checkerList
		}
	}
	if rate > 0 && len(spec.Clients) > 0 {
		spec.Clients[0].Arrival = loadgen.ArrivalSpec{Process: "poisson", Rate: rate}
	}
}

func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.ParseFloat(part, 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("bad sweep rate %q", part)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("no sweep rates")
	}
	sort.Float64s(rates)
	return rates, nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func printSummary(s loadgen.Summary) {
	fmt.Printf("scenario=%s requests=%d errors=%d (%.2f%%) elapsed=%.2fs throughput=%.2f req/s",
		s.Scenario, s.Requests, s.Errors, s.ErrorRate*100,
		float64(s.ElapsedNs)/1e9, s.Throughput)
	if s.Offered > 0 {
		fmt.Printf(" offered=%.2f req/s", s.Offered)
	}
	fmt.Println()
	l := s.Latency
	fmt.Printf("latency ms: min=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f mean=%.2f\n",
		ms(l.Min), ms(l.P50), ms(l.P95), ms(l.P99), ms(l.Max), ms(l.Mean))
	fmt.Printf("attribution gap: mean=%.1f%% p50=%.1f%% max=%.1f%%\n",
		s.AttributionGap.Mean*100, s.AttributionGap.P50*100, s.AttributionGap.Max*100)
	if s.SLO != nil {
		verdict := "met"
		if !s.SLO.Met {
			verdict = "VIOLATED"
		}
		fmt.Printf("slo: p%g<=%.2fms achieved=%.2fms violations=%d (%.2f%%) burn=%.2f %s\n",
			s.SLO.Quantile*100, ms(s.SLO.TargetNs), ms(s.SLO.QuantileNs),
			s.SLO.Violations, s.SLO.ViolationRate*100, s.SLO.BurnRate, verdict)
	}

	// Phase means, largest first, so the breakdown reads as a profile.
	type kv struct {
		name string
		v    int64
	}
	var phases []kv
	for name, v := range s.PhaseMeanNs {
		phases = append(phases, kv{name, v})
	}
	sort.Slice(phases, func(i, j int) bool {
		if phases[i].v != phases[j].v {
			return phases[i].v > phases[j].v
		}
		return phases[i].name < phases[j].name
	})
	fmt.Print("server phases (mean ms):")
	for _, p := range phases {
		fmt.Printf(" %s=%.2f", p.name, ms(p.v))
	}
	fmt.Println()
	for _, g := range s.Groups {
		fmt.Printf("  group %-8s requests=%d errors=%d p50=%.2fms p95=%.2fms max=%.2fms\n",
			g.Client, g.Requests, g.Errors, ms(g.Latency.P50), ms(g.Latency.P95), ms(g.Latency.Max))
	}
}

func printSweep(sr *loadgen.SweepResult) {
	fmt.Println("offered(req/s)  achieved(req/s)  p50(ms)  p95(ms)  p99(ms)  errors")
	for _, pt := range sr.Points {
		l := pt.Summary.Latency
		fmt.Printf("%14.2f  %15.2f  %7.2f  %7.2f  %7.2f  %6d\n",
			pt.Offered, pt.Achieved, ms(l.P50), ms(l.P95), ms(l.P99), pt.Summary.Errors)
	}
	if sr.Knee > 0 {
		fmt.Printf("saturation knee: %.2f req/s (highest offered rate sustained within 5%% with zero errors)\n", sr.Knee)
	} else {
		fmt.Println("saturation knee: not reached (service kept up with no tested rate)")
	}
}

// writeJSONFile creates path and hands it to write.
func writeJSONFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeIndented(f *os.File, v any) error {
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pinpointbench:", err)
	os.Exit(1)
}
