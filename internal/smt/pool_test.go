package smt

import (
	"fmt"
	"reflect"
	"testing"
)

// TestResetEqualsFresh is the invariant the per-candidate solver reuse
// relies on: a Reset solver reproduces a fresh solver bit-for-bit — same
// term IDs, same verdict, same model.
func TestResetEqualsFresh(t *testing.T) {
	run := func(s *Solver) (Result, map[string]bool, []int) {
		tb := s.TB
		p, q := tb.BoolVar("p"), tb.BoolVar("q")
		x, y := tb.IntVar("x"), tb.IntVar("y")
		terms := []*Term{
			tb.Or(p, q),
			tb.Implies(p, tb.Lt(x, y)),
			tb.Implies(q, tb.Lt(y, x)),
			tb.Le(x, tb.Int(4)),
		}
		ids := make([]int, len(terms))
		for i, f := range terms {
			ids[i] = f.ID()
			s.Assert(f)
		}
		res := s.Check()
		return res, s.BoolModel(), ids
	}

	used := NewSolver()
	// Dirty the solver with an unrelated query first.
	used.Assert(used.TB.And(used.TB.BoolVar("junk"), used.TB.Lt(used.TB.IntVar("a"), used.TB.Int(0))))
	if used.Check() == Unknown {
		t.Fatal("warm-up query unexpectedly exhausted the budget")
	}
	used.Reset()
	gotRes, gotModel, gotIDs := run(used)

	wantRes, wantModel, wantIDs := run(NewSolver())
	if gotRes != wantRes {
		t.Fatalf("reset solver: Check = %v, fresh = %v", gotRes, wantRes)
	}
	if !reflect.DeepEqual(gotModel, wantModel) {
		t.Fatalf("reset solver model %v != fresh model %v", gotModel, wantModel)
	}
	if !reflect.DeepEqual(gotIDs, wantIDs) {
		t.Fatalf("reset builder IDs %v != fresh IDs %v", gotIDs, wantIDs)
	}
}

func TestSolverPoolReuse(t *testing.T) {
	s := GetSolver()
	s.Assert(s.TB.False())
	if got := s.Check(); got != Unsat {
		t.Fatalf("Check = %v, want unsat", got)
	}
	PutSolver(s)

	// Whatever the pool hands back must behave fresh.
	s2 := GetSolver()
	defer PutSolver(s2)
	s2.Assert(s2.TB.BoolVar("p"))
	if got := s2.Check(); got != Sat {
		t.Fatalf("pooled solver: Check = %v, want sat", got)
	}
}

// queryBench asserts and checks a moderately-sized feasibility query, the
// shape the detection layer issues per candidate.
func queryBench(s *Solver) Result {
	tb := s.TB
	var conds []*Term
	for i := 0; i < 8; i++ {
		c := tb.BoolVar(fmt.Sprintf("c%d@f", i))
		x := tb.IntVar(fmt.Sprintf("v%d", i))
		conds = append(conds, tb.Or(c, tb.Lt(x, tb.Int(int64(i)))))
	}
	s.Assert(tb.And(conds...))
	return s.Check()
}

// BenchmarkSolverFresh allocates a brand-new solver per query — the
// pre-elimination behavior.
func BenchmarkSolverFresh(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSolver()
		if queryBench(s) != Sat {
			b.Fatal("unexpected verdict")
		}
	}
}

// BenchmarkSolverPooled reuses one pooled solver via Reset, retaining the
// SAT core's and TermBuilder's backing allocations.
func BenchmarkSolverPooled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := GetSolver()
		if queryBench(s) != Sat {
			b.Fatal("unexpected verdict")
		}
		PutSolver(s)
	}
}
