package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/detect"
	"repro/internal/workload"
)

// expectation is what every op of one client must return: the reference
// report bytes computed in set-up, and the generator's ground truth.
type expectation struct {
	ref   []byte
	truth *workload.Truth
}

// newExpectation gates reports against truth and, if they pass, makes
// them the reference for later ops.
func newExpectation(truth *workload.Truth, reps []detect.JSONReport) (expectation, error) {
	if err := checkTruth(truth, reps); err != nil {
		return expectation{}, fmt.Errorf("reference run: %w", err)
	}
	ref, err := json.Marshal(reps)
	if err != nil {
		return expectation{}, err
	}
	return expectation{ref: ref, truth: truth}, nil
}

// check is the per-op correctness gate: the reports match the truth and
// are byte-identical to the reference.
func (e expectation) check(reps []detect.JSONReport) error {
	if err := checkTruth(e.truth, reps); err != nil {
		return err
	}
	got, err := json.Marshal(reps)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, e.ref) {
		return fmt.Errorf("report bytes differ from the reference (%d vs %d bytes)", len(got), len(e.ref))
	}
	return nil
}

// toJSON converts reports to the exported schema, the form the server
// returns and the byte comparison uses.
func toJSON(reps []detect.Report) []detect.JSONReport {
	out := make([]detect.JSONReport, len(reps))
	for i, r := range reps {
		out[i] = r.ToJSON()
	}
	return out
}

type site struct {
	file string
	line int
}

func sitesOf(bs []workload.BugSite) map[site]bool {
	m := make(map[site]bool, len(bs))
	for _, b := range bs {
		m[site{b.File, b.Line}] = true
	}
	return m
}

// checkTruth compares the use-after-free and taint reports with the
// generated ground truth: every true site is reported, no infeasible trap
// is, and nothing falls outside true plus opaque sites. Reports are keyed
// by their source position (the free, or the taint-source call), which is
// how the generator records its sites.
func checkTruth(t *workload.Truth, reps []detect.JSONReport) error {
	type gated struct {
		want, allowed, forbidden map[site]bool
	}
	uafTrue := sitesOf(t.TrueUAF)
	uafAllowed := sitesOf(append(append([]workload.BugSite(nil), t.TrueUAF...), t.OpaqueUAF...))
	gates := map[string]gated{
		"use-after-free": {want: uafTrue, allowed: uafAllowed, forbidden: sitesOf(t.InfeasibleTraps)},
	}
	for checker, sites := range t.TaintTrue {
		gates[checker] = gated{
			want:    sitesOf(sites),
			allowed: sitesOf(append(append([]workload.BugSite(nil), sites...), t.TaintOpaque[checker]...)),
		}
	}
	for checker, sites := range t.TaintOpaque {
		if _, ok := gates[checker]; !ok {
			gates[checker] = gated{want: map[site]bool{}, allowed: sitesOf(sites)}
		}
	}

	seen := make(map[string]map[site]bool)
	var problems []string
	for _, r := range reps {
		g, ok := gates[r.Checker]
		if !ok {
			continue
		}
		s := site{r.SourceFile, r.SourceLine}
		if seen[r.Checker] == nil {
			seen[r.Checker] = make(map[site]bool)
		}
		seen[r.Checker][s] = true
		switch {
		case g.forbidden[s]:
			problems = append(problems, fmt.Sprintf("%s reported infeasible trap %s:%d", r.Checker, s.file, s.line))
		case !g.allowed[s]:
			problems = append(problems, fmt.Sprintf("%s reported %s:%d outside the true and opaque sites", r.Checker, s.file, s.line))
		}
	}
	for checker, g := range gates {
		for s := range g.want {
			if !seen[checker][s] {
				problems = append(problems, fmt.Sprintf("%s missed true site %s:%d", checker, s.file, s.line))
			}
		}
	}
	if len(problems) == 0 {
		return nil
	}
	sort.Strings(problems)
	if len(problems) > 5 {
		problems = append(problems[:5], fmt.Sprintf("and %d more", len(problems)-5))
	}
	return fmt.Errorf("ground truth mismatch: %s", strings.Join(problems, "; "))
}
