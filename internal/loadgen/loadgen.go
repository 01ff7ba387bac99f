// Package loadgen is a declarative load harness for the analysis service:
// it drives POST /v1/analyze with synthetic workload subjects under
// configurable arrival processes and reports per-request latency samples,
// exact percentile summaries, and the server's own phase-attributed timing
// breakdown next to each client-observed latency.
//
// A run is described by a Spec: one workload subject (the program under
// analysis) plus one or more client groups, each with its own arrival
// process, request mutation mode, and checker set. The harness supports
// the two canonical load-generation disciplines:
//
//   - closed-loop: Count clients issue a request, wait for the response,
//     think, repeat — throughput adapts to server latency, modeling a
//     fixed population of IDE sessions;
//   - open-loop (poisson/uniform/burst): arrivals fire on a schedule that
//     ignores completions, modeling independent external traffic — the
//     discipline that exposes queueing collapse, since offered load does
//     not slow down when the server does.
//
// Mutation modes control what the server's incremental session sees:
// "none" re-sends an identical program (pure warm path), "edit" perturbs
// one driver-function body per request (the single-function incremental
// path), and "fresh" rotates the generator seed (full rebuild per
// distinct body).
package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/minic"
	"repro/internal/workload"
)

// Spec declares one load scenario.
type Spec struct {
	// Name labels the scenario in summaries and snapshots.
	Name string `json:"name"`
	// Subject is the analyzed program.
	Subject SubjectSpec `json:"subject"`
	// Clients are the concurrent client groups.
	Clients []ClientSpec `json:"clients"`
}

// SubjectSpec selects and sizes the workload program.
type SubjectSpec struct {
	// Name is a workload.Subjects entry, or empty for the default
	// synthetic bench subject.
	Name string `json:"name,omitempty"`
	// Scale is workload.GenOptions.Scale (generated lines per paper
	// KLoC); 0 keeps the bench default of 30.
	Scale int `json:"scale,omitempty"`
	// Seed perturbs generation; 0 derives from the subject name.
	Seed int64 `json:"seed,omitempty"`
	// Taint injects the taint-flow workloads too.
	Taint bool `json:"taint,omitempty"`
}

// ClientSpec is one homogeneous group of load clients.
type ClientSpec struct {
	// ID labels the group in samples ("warm", "editor", ...).
	ID string `json:"id"`
	// Project routes this group's requests to a per-project tenant
	// session on the server. Empty means the default tenant — the
	// pre-tenant wire format, byte-identical request bodies. Groups with
	// distinct projects exercise cross-tenant concurrency.
	Project string `json:"project,omitempty"`
	// SubjectSeed perturbs the workload generator seed for this group,
	// modeling a distinct project codebase: groups with different
	// SubjectSeeds send different programs. 0 shares the spec's subject.
	SubjectSeed int64 `json:"subjectSeed,omitempty"`
	// Count is the number of concurrent clients (closed) or parallel
	// arrival streams (open); 0 means 1.
	Count int `json:"count,omitempty"`
	// Requests bounds the total requests this group issues; 0 means
	// bounded by the run duration alone.
	Requests int `json:"requests,omitempty"`
	// Arrival is the group's arrival process.
	Arrival ArrivalSpec `json:"arrival"`
	// Mutate is the request mutation mode: "none" (default), "edit", or
	// "fresh".
	Mutate string `json:"mutate,omitempty"`
	// Checkers selects detectors per request (empty = all).
	Checkers []string `json:"checkers,omitempty"`
	// Witness requests per-report provenance.
	Witness bool `json:"witness,omitempty"`
}

// ArrivalSpec describes when a group's requests fire.
type ArrivalSpec struct {
	// Process is "closed" (default), "poisson", "uniform", or "burst".
	Process string `json:"process,omitempty"`
	// Rate is the offered arrival rate in requests/second for the open
	// processes (per group, across all its streams).
	Rate float64 `json:"rate,omitempty"`
	// Burst is the arrivals per burst for the burst process (bursts fire
	// at Rate/Burst per second so the offered rate stays Rate).
	Burst int `json:"burst,omitempty"`
	// ThinkMs is the closed-loop think time between a response and the
	// next request, in milliseconds.
	ThinkMs int64 `json:"thinkMs,omitempty"`
}

func (c ClientSpec) count() int {
	if c.Count <= 0 {
		return 1
	}
	return c.Count
}

// Validate rejects specs the runner cannot execute.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("loadgen: spec has no name")
	}
	if len(s.Clients) == 0 {
		return fmt.Errorf("loadgen: spec %q has no client groups", s.Name)
	}
	for i, c := range s.Clients {
		if c.ID == "" {
			return fmt.Errorf("loadgen: spec %q: client group %d has no id", s.Name, i)
		}
		switch c.Mutate {
		case "", "none", "edit", "fresh":
		default:
			return fmt.Errorf("loadgen: spec %q: client %q: unknown mutate mode %q", s.Name, c.ID, c.Mutate)
		}
		switch p := c.Arrival.Process; p {
		case "", "closed":
		case "poisson", "uniform", "burst":
			if c.Arrival.Rate <= 0 {
				return fmt.Errorf("loadgen: spec %q: client %q: %s arrivals need rate > 0", s.Name, c.ID, p)
			}
		default:
			return fmt.Errorf("loadgen: spec %q: client %q: unknown arrival process %q", s.Name, c.ID, p)
		}
	}
	return nil
}

// LoadSpec reads a Spec from a JSON file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("loadgen: %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Builtin returns a named built-in scenario. The three canonical mixes —
// cold builds, warm single-function edits, burst arrivals — mirror the
// service's expected traffic shapes; "mixed" runs an editing client
// against a background warm poller with disjoint checker sets.
func Builtin(name string) (*Spec, bool) {
	scenarios := map[string]*Spec{
		"warm": {
			Name: "warm",
			Clients: []ClientSpec{{
				ID: "warm", Arrival: ArrivalSpec{Process: "closed"},
			}},
		},
		"cold": {
			Name: "cold",
			Clients: []ClientSpec{{
				ID: "cold", Mutate: "fresh", Arrival: ArrivalSpec{Process: "closed"},
			}},
		},
		"edit": {
			Name: "edit",
			Clients: []ClientSpec{{
				ID: "editor", Mutate: "edit", Arrival: ArrivalSpec{Process: "closed"},
			}},
		},
		"burst": {
			Name: "burst",
			Clients: []ClientSpec{{
				ID: "burst", Mutate: "edit",
				Arrival: ArrivalSpec{Process: "burst", Rate: 8, Burst: 4},
			}},
		},
		"mixed": {
			Name: "mixed",
			Clients: []ClientSpec{
				{ID: "editor", Mutate: "edit", Checkers: []string{"use-after-free", "null-deref"},
					Arrival: ArrivalSpec{Process: "closed", ThinkMs: 50}},
				{ID: "poller", Checkers: []string{"memory-leak"},
					Arrival: ArrivalSpec{Process: "uniform", Rate: 2}},
			},
		},
		// tenants: two editing clients on different projects with different
		// codebases (distinct SubjectSeeds) — with the tenant layer each
		// project keeps its own warm sticky session and their builds and
		// detects overlap. Compare against tenants-serial (identical
		// request bodies, no project routing) where both codebases thrash
		// one session's sticky cache the way the pre-tenant single-mutex
		// server forced them to.
		"tenants": {
			Name: "tenants",
			Clients: []ClientSpec{
				{ID: "alpha", Project: "alpha", Mutate: "edit", Arrival: ArrivalSpec{Process: "closed"}},
				{ID: "beta", Project: "beta", SubjectSeed: 9973, Mutate: "edit", Arrival: ArrivalSpec{Process: "closed"}},
			},
		},
		"tenants-serial": {
			Name: "tenants-serial",
			Clients: []ClientSpec{
				{ID: "alpha", Mutate: "edit", Arrival: ArrivalSpec{Process: "closed"}},
				{ID: "beta", SubjectSeed: 9973, Mutate: "edit", Arrival: ArrivalSpec{Process: "closed"}},
			},
		},
	}
	s, ok := scenarios[name]
	return s, ok
}

// BuiltinNames lists the built-in scenario names.
func BuiltinNames() []string {
	return []string{"warm", "cold", "edit", "burst", "mixed", "tenants", "tenants-serial"}
}

// subject resolves the spec's workload subject.
func (s *Spec) subject() (workload.Subject, workload.GenOptions) {
	subj := workload.Subject{
		Name: "bench-serve", Origin: "synthetic", PaperKLoC: 60,
		TrueBugs: 6, OpaqueTraps: 4,
	}
	if s.Subject.Name != "" {
		if named, ok := workload.SubjectByName(s.Subject.Name); ok {
			subj = named
		}
	}
	scale := s.Subject.Scale
	if scale == 0 {
		scale = 30
	}
	return subj, workload.GenOptions{Scale: scale, Seed: s.Subject.Seed, Taint: s.Subject.Taint}
}

// editUnit inserts a distinct statement after the driver-function opening
// line of unit u: the n-th edit yields
// a body different from the (n-1)-th, so consecutive requests dirty
// exactly one function each.
func editUnit(u minic.NamedSource, n int) minic.NamedSource {
	lines := strings.Split(u.Src, "\n")
	for i, ln := range lines {
		if strings.HasPrefix(ln, "void drive_") {
			stmt := fmt.Sprintf("\tseed = seed + %d;", n%1021+1)
			lines = append(lines[:i+1], append([]string{stmt}, lines[i+1:]...)...)
			return minic.NamedSource{Name: u.Name, Src: strings.Join(lines, "\n")}
		}
	}
	return u
}
