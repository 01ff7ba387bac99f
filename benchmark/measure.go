package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// loopResult collects the ops of one closed-loop window.
type loopResult struct {
	latencies []time.Duration // successful ops only
	attempted int
	failed    int
	errors    []string // the first few failures
	elapsed   time.Duration
}

func (a loopResult) merge(b loopResult) loopResult {
	a.latencies = append(a.latencies, b.latencies...)
	a.attempted += b.attempted
	a.failed += b.failed
	a.errors = append(a.errors, b.errors...)
	a.elapsed += b.elapsed
	return a
}

func (r loopResult) errorNotes() []string {
	var notes []string
	for _, e := range r.errors {
		notes = append(notes, "FAILED op: "+e)
	}
	return notes
}

// closedLoop runs w.clients() clients for dur. Each client starts its next
// op only when the previous one has finished and passed the correctness
// gate; an op that errs or returns wrong reports counts as failed.
func closedLoop(w instance, dur time.Duration, op func(c, seq int) outcome) loopResult {
	var (
		mu  sync.Mutex
		res loopResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; time.Now().Before(deadline); seq++ {
				out := op(c, seq)
				err := out.err
				if err == nil {
					err = w.expect(c).check(out.reports)
				}
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
					if len(res.errors) < 5 {
						res.errors = append(res.errors, fmt.Sprintf("client %d op %d: %v", c, seq, err))
					}
				} else {
					res.latencies = append(res.latencies, out.latency)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// measureEndToEnd runs the untraced window and derives the end-to-end
// metrics (setup_s is added by the caller).
func measureEndToEnd(w instance, dur time.Duration) (*result, error) {
	settle()
	cpu0 := cpuTime()
	loop := closedLoop(w, dur, w.op)
	cpu := cpuTime() - cpu0
	peak, err := peakRSS()
	if err != nil {
		return nil, err
	}
	if loop.attempted == 0 {
		return nil, fmt.Errorf("no op attempted")
	}
	ok := loop.attempted - loop.failed
	res := &result{
		Correct:   loop.failed == 0,
		Attempted: loop.attempted,
		Failed:    loop.failed,
		Metrics: map[string]metric{
			"ops_per_s":     {float64(ok) / loop.elapsed.Seconds(), "1/s"},
			"success_ratio": {float64(ok) / float64(loop.attempted), "ratio"},
			"cpu_ms_per_op": {float64(cpu) / 1e6 / float64(loop.attempted), "ms"},
			"peak_rss_mb":   {float64(peak) / (1 << 20), "MiB"},
		},
		notes: loop.errorNotes(),
	}
	if ok == 0 {
		return res, nil
	}
	p50 := medianDur(loop.latencies)
	tail, pct := tailLatency(loop.latencies)
	res.Metrics["latency_p50_ms"] = metric{p50 / 1e6, "ms"}
	res.Metrics["latency_tail_ms"] = metric{float64(tail) / 1e6, "ms"}
	res.notes = append(res.notes, fmt.Sprintf("%d ops attempted, %d failed, in %.2fs; latency_tail_ms is p%d of %d samples",
		loop.attempted, loop.failed, loop.elapsed.Seconds(), pct, len(loop.latencies)))
	return res, nil
}

// tailLatency returns the highest whole percentile that has at least ten
// samples beyond it, by nearest rank, and that percentile. With ten
// samples or fewer no percentile qualifies and the maximum (p100) is
// returned.
func tailLatency(lat []time.Duration) (time.Duration, int) {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	p := 100 * (n - 10) / n
	rank := (p*n + 99) / 100 // ceil(p/100 * n)
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], p
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur is the median of ds in nanoseconds.
func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return median(xs)
}

// settle collects set-up garbage, returns it to the OS and restarts the
// peak-RSS counter, so the measured window starts from the same state on
// every run and peak_rss_mb covers only that window.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets the process's VmHWM to its current
	// RSS (Linux 4.0+). If it fails, peak_rss_mb covers set-up too.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS reads the process's peak resident set (VmHWM) in bytes.
func peakRSS() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
