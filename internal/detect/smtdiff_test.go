package detect_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/minic"
)

// The differential suite behind the SMT-query-elimination guarantee: every
// combination of verdict cache and prefilter — including a warm cache, whose
// exact-tier entries replay stored models — must produce JSON reports
// byte-identical to the eliminate-nothing baseline, at one worker and at
// GOMAXPROCS. scripts/check.sh runs the package under -race, which makes the
// shared-cache locking part of what these tests exercise.

// exampleUnits loads the checked-in CLI example sources.
func exampleUnits(t *testing.T) []minic.NamedSource {
	t.Helper()
	paths, err := filepath.Glob("../../examples/mc/*.mc")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example sources found: %v", err)
	}
	units := make([]minic.NamedSource, len(paths))
	for i, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		units[i] = minic.NamedSource{Name: filepath.Base(p), Src: string(src)}
	}
	return units
}

func marshalReports(t *testing.T, rs []detect.Report) string {
	t.Helper()
	js := make([]detect.JSONReport, len(rs))
	for i, r := range rs {
		js[i] = r.ToJSON()
	}
	b, err := json.Marshal(js)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// runSMTDifferential checks CheckAll over a — under every elimination
// configuration and worker count — against the both-stages-disabled
// baseline. One Analysis is shared deliberately: later runs with the cache
// enabled hit entries stored by earlier ones, so warm-cache model replay is
// part of the contract under test.
func runSMTDifferential(t *testing.T, a *core.Analysis) {
	specs := checkers.All()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		base := a.CheckAll(specs, detect.Options{
			Workers: workers, DisableSMTCache: true, DisableSMTPrefilter: true,
		})
		baseJSON := marshalReports(t, base.Reports)
		if len(base.Reports) == 0 {
			t.Fatal("baseline produced no reports; differential is vacuous")
		}
		variants := []struct {
			name string
			opts detect.Options
		}{
			{"prefilter-only", detect.Options{Workers: workers, DisableSMTCache: true}},
			{"cache-only", detect.Options{Workers: workers, DisableSMTPrefilter: true}},
			{"cache+prefilter", detect.Options{Workers: workers}},
			{"cache+prefilter-warm", detect.Options{Workers: workers}},
		}
		for _, v := range variants {
			res := a.CheckAll(specs, v.opts)
			if got := marshalReports(t, res.Reports); got != baseJSON {
				t.Fatalf("workers=%d %s: reports differ from elimination-off baseline\nbase: %s\ngot:  %s",
					workers, v.name, baseJSON, got)
			}
			// The stages must partition the query count exactly.
			for _, cs := range res.Checkers {
				st := cs.Stats
				if st.SMTSolved+st.SMTCacheHits+st.SMTPrefilterUnsat != st.SMTQueries {
					t.Fatalf("workers=%d %s %s: stages %d+%d+%d != queries %d",
						workers, v.name, cs.Checker,
						st.SMTSolved, st.SMTCacheHits, st.SMTPrefilterUnsat, st.SMTQueries)
				}
				if v.opts.DisableSMTCache && st.SMTCacheHits != 0 {
					t.Fatalf("workers=%d %s %s: cache disabled but %d hits",
						workers, v.name, cs.Checker, st.SMTCacheHits)
				}
				if v.opts.DisableSMTPrefilter && st.SMTPrefilterUnsat != 0 {
					t.Fatalf("workers=%d %s %s: prefilter disabled but %d kills",
						workers, v.name, cs.Checker, st.SMTPrefilterUnsat)
				}
			}
		}
	}
}

func TestSMTEliminationDifferentialExamples(t *testing.T) {
	a, err := core.BuildFromSource(exampleUnits(t), core.BuildOptions{Workers: -1})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	runSMTDifferential(t, a)
}

func TestSMTEliminationDifferentialWorkload(t *testing.T) {
	runSMTDifferential(t, buildWorkloadSubject(t))
}

// TestSMTEliminationDifferentialBugDense covers the cache-dominated regime:
// a small program dense with injected bugs and opaque traps, where most
// queries are alpha-variants of one another, so Sat-model replay from the
// verdict cache decides most witnesses.
func TestSMTEliminationDifferentialBugDense(t *testing.T) {
	runSMTDifferential(t, buildBugDenseSubject(t))
}

// TestSMTEliminationAblationStats pins the elimination machinery's effect,
// not just its harmlessness: with both stages on, a second (warm) run must
// answer every query without entering the DPLL(T) solver, and the prefilter
// must refute at least one candidate on the workload subject.
func TestSMTEliminationAblationStats(t *testing.T) {
	a := buildWorkloadSubject(t)
	specs := checkers.All()
	opts := detect.Options{Workers: 1}
	a.CheckAll(specs, opts) // cold run populates the verdict cache
	warm := a.CheckAll(specs, opts)
	var solved, hits, prefiltered, queries int
	for _, cs := range warm.Checkers {
		solved += cs.Stats.SMTSolved
		hits += cs.Stats.SMTCacheHits
		prefiltered += cs.Stats.SMTPrefilterUnsat
		queries += cs.Stats.SMTQueries
	}
	if queries == 0 {
		t.Fatal("no SMT queries issued; ablation is vacuous")
	}
	if solved != 0 {
		t.Errorf("warm run still solved %d of %d queries; verdict cache not retaining", solved, queries)
	}
	if hits == 0 {
		t.Error("warm run recorded no cache hits")
	}
	if prefiltered == 0 {
		t.Error("prefilter refuted no candidate on the workload subject")
	}
}
