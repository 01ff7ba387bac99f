package smt

// Canonical fingerprinting of asserted formula sequences, the key of the
// SMT verdict cache. Two candidates that instantiate the same guards in
// different calling contexts build alpha-variants of the same term DAG
// (variable names embed instance numbers, e.g. "i3.v17"), so the
// fingerprint alpha-normalizes variable names: each TVar is replaced by
// its first-occurrence index in a deterministic traversal of the asserted
// sequence. Shared subterms are serialized once and back-referenced by
// emission number, so the fingerprint is linear in the DAG (not the tree).
//
// Equal keys imply the two queries are variable-renamings of one another,
// which makes the whole solver run isomorphic: CNF variables are allocated
// in traversal order, the theory layer visits atoms in SAT-variable order,
// and branching breaks activity ties in variable-creation order. A cached
// verdict AND a cached model can therefore be replayed, reproducing a fresh
// solve bit-for-bit. The key preserves assertion order and the argument
// order of every term: operand permutations are distinct queries.

import (
	"crypto/sha256"
	"encoding/binary"
)

// Canon is the canonical fingerprint of an asserted formula sequence.
type Canon struct {
	// Exact is the alpha-normalized, order-preserving key.
	Exact [32]byte

	vars []*Term // TVars in exact first-occurrence order; index = canonical id
}

// canonEnc serializes a term DAG into buf with alpha-normalized variables
// and back-references for shared subterms.
type canonEnc struct {
	buf   []byte
	seen  map[int]int // term id -> emission number
	varID map[int]int // TVar term id -> canonical variable index
	vars  []*Term
}

func (e *canonEnc) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *canonEnc) emit(t *Term) {
	if n, ok := e.seen[t.id]; ok {
		e.buf = append(e.buf, '#')
		e.uvarint(uint64(n))
		return
	}
	e.seen[t.id] = len(e.seen)
	e.buf = append(e.buf, byte(t.Kind), byte(t.Sort))
	switch t.Kind {
	case TVar:
		idx, ok := e.varID[t.id]
		if !ok {
			idx = len(e.vars)
			e.varID[t.id] = idx
			e.vars = append(e.vars, t)
		}
		e.uvarint(uint64(idx))
	case TIntConst, TBoolConst:
		e.uvarint(uint64(t.Int))
	case TApp:
		e.uvarint(uint64(len(t.Name)))
		e.buf = append(e.buf, t.Name...)
	}
	if len(t.Args) == 0 {
		return
	}
	e.uvarint(uint64(len(t.Args)))
	for _, a := range t.Args {
		e.emit(a)
	}
}

// Fingerprint computes the canonical fingerprint of an asserted sequence.
// All terms must come from one TermBuilder (ids must be consistent).
func Fingerprint(terms []*Term) *Canon {
	e := &canonEnc{seen: make(map[int]int), varID: make(map[int]int)}
	for _, t := range terms {
		e.emit(t)
		e.buf = append(e.buf, ';')
	}
	return &Canon{Exact: sha256.Sum256(e.buf), vars: e.vars}
}

// NumVars returns the number of distinct variables in the fingerprinted
// sequence.
func (c *Canon) NumVars() int { return len(c.vars) }

// CanonModel translates a name-keyed boolean model (as returned by
// Solver.BoolModel) into a canonical-id-keyed model suitable for storing
// alongside the Exact key.
func (c *Canon) CanonModel(model map[string]bool) map[int]bool {
	if model == nil {
		return nil
	}
	out := make(map[int]bool, len(model))
	for i, v := range c.vars {
		if v.Sort != SortBool {
			continue
		}
		if val, ok := model[v.Name]; ok {
			out[i] = val
		}
	}
	return out
}

// ProjectModel translates a canonical-id-keyed model back into this
// query's variable names. It is the inverse of CanonModel across any two
// queries with equal Exact keys.
func (c *Canon) ProjectModel(canonModel map[int]bool) map[string]bool {
	if canonModel == nil {
		return nil
	}
	out := make(map[string]bool, len(canonModel))
	for i, val := range canonModel {
		if i >= 0 && i < len(c.vars) {
			out[c.vars[i].Name] = val
		}
	}
	return out
}
