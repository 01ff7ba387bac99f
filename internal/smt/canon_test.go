package smt

import (
	"fmt"
	"math/rand"
	"testing"
)

// buildSpec realizes a small formula family in a fresh TermBuilder, with
// variable names drawn from prefix and — when reversed — the arguments of
// the top-level conjunction supplied in the opposite order.
func buildSpec(tb *TermBuilder, prefix string, reversed bool) []*Term {
	v := func(i int) *Term { return tb.IntVar(fmt.Sprintf("%s.v%d", prefix, i)) }
	b := func(i int) *Term { return tb.BoolVar(fmt.Sprintf("%s.c%d", prefix, i)) }

	conj := []*Term{
		tb.Lt(v(0), tb.Int(5)),
		tb.Le(tb.Int(7), v(1)),
		tb.Not(b(0)),
		tb.Or(b(1), tb.Eq(v(0), tb.Int(3))),
		tb.Eq(tb.App("f", SortInt, v(1)), v(2)),
	}
	if reversed {
		for i, j := 0, len(conj)-1; i < j; i, j = i+1, j-1 {
			conj[i], conj[j] = conj[j], conj[i]
		}
	}
	return []*Term{tb.And(conj...), tb.Implies(b(0), b(1))}
}

func TestFingerprintAlphaRenaming(t *testing.T) {
	fpA := Fingerprint(buildSpec(NewTermBuilder(), "i0", false))
	fpB := Fingerprint(buildSpec(NewTermBuilder(), "i7", false))
	if fpA.Exact != fpB.Exact {
		t.Error("alpha-renamed formulas have different Exact keys")
	}
	if fpA.NumVars() != fpB.NumVars() {
		t.Errorf("NumVars differ: %d vs %d", fpA.NumVars(), fpB.NumVars())
	}
}

func TestFingerprintCommutativeReorder(t *testing.T) {
	fwd := Fingerprint(buildSpec(NewTermBuilder(), "x", false))
	rev := Fingerprint(buildSpec(NewTermBuilder(), "x", true))
	// Solver runs over operand permutations are not isomorphic, so a
	// cached model could not be replayed across them: the key must tell
	// them apart even for commutative connectives.
	if fwd.Exact == rev.Exact {
		t.Error("Exact key ignored argument order; it must preserve it")
	}
}

func TestFingerprintDistinguishesStructure(t *testing.T) {
	tb := NewTermBuilder()
	x, y := tb.IntVar("x"), tb.IntVar("y")
	a := Fingerprint([]*Term{tb.Lt(x, y)})
	b := Fingerprint([]*Term{tb.Le(x, y)})
	if a.Exact == b.Exact {
		t.Error("x<y and x<=y fingerprint identically")
	}
	// Standalone x<y and y<x are alpha-variants (rename x↔y), so they MUST
	// collide — that is the cache working as intended.
	if c := Fingerprint([]*Term{tb.Lt(y, x)}); a.Exact != c.Exact {
		t.Error("x<y and y<x are alpha-variants but fingerprint differently")
	}
	// Once an earlier assertion pins the variable numbering, Lt — not
	// commutative — must distinguish operand order.
	pin := tb.Le(x, tb.Int(0))
	d := Fingerprint([]*Term{pin, tb.Lt(x, y)})
	e := Fingerprint([]*Term{pin, tb.Lt(y, x)})
	if d.Exact == e.Exact {
		t.Error("pinned x<y and y<x fingerprint identically")
	}
}

func TestFingerprintSharedSubtermBackrefs(t *testing.T) {
	// A DAG with a shared subterm must not collide with the tree in which
	// the two occurrences are distinct terms.
	tb := NewTermBuilder()
	x, y := tb.IntVar("x"), tb.IntVar("y")
	fx := tb.App("f", SortInt, x)
	shared := Fingerprint([]*Term{tb.Eq(fx, fx)}) // folds to true
	mixed := Fingerprint([]*Term{tb.Eq(tb.App("f", SortInt, x), tb.App("f", SortInt, y))})
	if shared.Exact == mixed.Exact {
		t.Error("f(x)=f(x) and f(x)=f(y) fingerprint identically")
	}
}

func TestCanonModelRoundTrip(t *testing.T) {
	// Two alpha-variant queries: a model for one, pushed through the canon
	// id space, must come back keyed by the other's variable names.
	fpA := Fingerprint(buildSpec(NewTermBuilder(), "i0", false))
	fpB := Fingerprint(buildSpec(NewTermBuilder(), "i9", false))
	if fpA.Exact != fpB.Exact {
		t.Fatal("setup: alpha variants must share an Exact key")
	}
	model := map[string]bool{"i0.c0": false, "i0.c1": true}
	canon := fpA.CanonModel(model)
	back := fpB.ProjectModel(canon)
	want := map[string]bool{"i9.c0": false, "i9.c1": true}
	if len(back) != len(want) {
		t.Fatalf("projected model = %v, want %v", back, want)
	}
	for k, v := range want {
		if back[k] != v {
			t.Fatalf("projected model = %v, want %v", back, want)
		}
	}
}

// randomConjuncts generates n structurally diverse conjuncts, each
// embedding the distinct constant 10+i.
func randomConjuncts(rng *rand.Rand, tb *TermBuilder, prefix string, n int) []*Term {
	v := func(i int) *Term { return tb.IntVar(fmt.Sprintf("%s.v%d", prefix, i)) }
	b := func(i int) *Term { return tb.BoolVar(fmt.Sprintf("%s.c%d", prefix, i)) }
	out := make([]*Term, n)
	for i := 0; i < n; i++ {
		c := tb.Int(int64(10 + i))
		x, y := v(rng.Intn(4)), v(rng.Intn(4))
		switch rng.Intn(5) {
		case 0:
			out[i] = tb.Lt(x, c)
		case 1:
			out[i] = tb.Le(c, y)
		case 2:
			out[i] = tb.Or(b(rng.Intn(3)), tb.Eq(x, c))
		case 3:
			out[i] = tb.Eq(tb.App("f", SortInt, x), c)
		default:
			out[i] = tb.Not(tb.Eq(tb.Add(x, c), y))
		}
	}
	return out
}

// FuzzFingerprint is the canonical-hashing property test: for a random
// formula, an alpha-renamed copy built in an independent builder (so term
// IDs differ too) fingerprints identically and projects its canonical
// variables one-to-one.
func FuzzFingerprint(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed%5)+2)
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint8) {
		n := int(size%8) + 2

		build := func(prefix string) *Canon {
			tb := NewTermBuilder()
			conj := randomConjuncts(rand.New(rand.NewSource(seed)), tb, prefix, n)
			return Fingerprint([]*Term{tb.And(conj...)})
		}

		base := build("a")
		renamed := build("z")
		if base.Exact != renamed.Exact {
			t.Fatalf("seed=%d n=%d: alpha-renamed copy fingerprints differently", seed, n)
		}
		if base.NumVars() != renamed.NumVars() {
			t.Fatalf("seed=%d n=%d: NumVars %d vs %d", seed, n, base.NumVars(), renamed.NumVars())
		}
	})
}
