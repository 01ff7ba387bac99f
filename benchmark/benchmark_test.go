package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// spec mirrors the parts of BENCHMARK.json the test checks.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyConfig runs a workload on a tiny input for a second and a half.
func tinyConfig(t *testing.T, name string, trace bool) config {
	return config{workload: name, seed: 3, seconds: 1.5, trace: trace, scale: 1, setupReps: 1, workDir: t.TempDir()}
}

// TestMetricsEmitted runs every workload of BENCHMARK.json at a tiny input
// size, untraced and traced, and checks that each named metric is emitted
// with its unit and a finite value, and that every op passed the gate.
func TestMetricsEmitted(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			res, err := run(tinyConfig(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w.Name, trace, res.Correct, res.Attempted, res.Failed, res.notes)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, trace, m.Name, got.Value)
				}
			}
		}
	}
}

// TestGateRejectsWrongTruth moves one true use-after-free site: the
// reference run must then fail the gate.
func TestGateRejectsWrongTruth(t *testing.T) {
	b, err := newBatch(tinyConfig(t, "bug_dense", false), workload.Subject{Name: "gate", PaperKLoC: 20, TrueBugs: 4, OpaqueTraps: 2}, true, 2)
	if err != nil {
		t.Fatalf("correct truth rejected: %v", err)
	}
	defer b.close()
	out := b.op(0, 0)
	if err := b.expect(0).check(out.reports); err != nil {
		t.Fatalf("correct op rejected: %v", err)
	}

	for _, mutate := range []struct {
		name string
		f    func(*workload.Truth)
	}{
		{"moved true site", func(tr *workload.Truth) { tr.TrueUAF[0].Line++ }},
		{"true site marked as trap", func(tr *workload.Truth) { tr.InfeasibleTraps = append(tr.InfeasibleTraps, tr.TrueUAF[0]) }},
		{"opaque site dropped", func(tr *workload.Truth) { tr.OpaqueUAF = tr.OpaqueUAF[1:] }},
	} {
		truth := b.gen.Truth
		truth.TrueUAF = append([]workload.BugSite(nil), truth.TrueUAF...)
		truth.InfeasibleTraps = append([]workload.BugSite(nil), truth.InfeasibleTraps...)
		mutate.f(&truth)
		err := expectation{ref: b.exp.ref, truth: &truth}.check(out.reports)
		if err == nil || !strings.Contains(err.Error(), "ground truth mismatch") {
			t.Errorf("%s: gate passed (err=%v)", mutate.name, err)
		}
		if _, err := newExpectation(&truth, out.reports); err == nil {
			t.Errorf("%s: reference accepted", mutate.name)
		}
	}

	// Different report bytes fail too, even when the truth matches.
	wrong := append(out.reports[:0:0], out.reports...)
	wrong[0].PathLen++
	if err := b.expect(0).check(wrong); err == nil {
		t.Error("changed report bytes passed the gate")
	}
}

func TestTailLatency(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(i + 1)
	}
	if v, p := tailLatency(ds); p != 90 || v != 90 {
		t.Errorf("100 samples: got p%d = %d, want p90 = 90", p, v)
	}
	if v, p := tailLatency(ds[:10]); p != 100 || v != 10 {
		t.Errorf("10 samples: got p%d = %d, want p100 = 10", p, v)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 50},  // overlaps 2
		{ID: 4, Parent: 1, Start: 90, End: 150}, // runs past the parent
	}
	self := selfTimes(spans)
	if self[1] != 100-40-10 {
		t.Errorf("self(1) = %d, want 50", self[1])
	}
	if self[2] != 30 {
		t.Errorf("self(2) = %d, want 30", self[2])
	}
}
