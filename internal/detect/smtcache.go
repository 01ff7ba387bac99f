package detect

// SMT query elimination: the layer between the candidate search and the
// DPLL(T) core. Every candidate's asserted term sequence runs through a
// three-stage pipeline (decideQuery):
//
//  1. a linear-time semi-decision prefilter (smt.Prefilter) that refutes
//     obviously contradictory queries without building CNF;
//  2. a canonical verdict cache keyed on smt.Fingerprint: isomorphic
//     queries — same guards instantiated in different contexts — are
//     solved once per Program and replayed from the cache, models
//     included, reproducing a fresh solve byte-for-byte;
//  3. a pooled, resettable solver for the residue that actually needs
//     DPLL(T).
//
// The cache is sharded and lock-striped so all workers and checkers share
// it without contention, lives on detect.Program, and — because verdicts
// are pure functions of the formula, independent of the program that
// produced it — is carried wholesale across incremental rebuilds by
// NewProgramFrom.

import (
	"sync"

	"repro/internal/smt"
)

// queryOutcome records which pipeline stage produced a verdict.
type queryOutcome uint8

const (
	// querySolved: the query entered the DPLL(T) loop.
	querySolved queryOutcome = iota
	// queryCacheExact: the verdict (and model, if Sat) was replayed from
	// the canonical (alpha-normalized, order-preserving) verdict cache.
	queryCacheExact
	// queryPrefilterUnsat: the semi-decision prefilter refuted the query.
	queryPrefilterUnsat
)

const smtCacheShards = 32

// smtVerdict is one cached entry: the verdict plus, for Sat, the model
// over canonical variable ids (projected back through each hitting query's
// own variable names).
type smtVerdict struct {
	res   smt.Result
	model map[int]bool
}

type smtCacheShard struct {
	mu    sync.RWMutex
	exact map[[32]byte]*smtVerdict
}

// smtVerdictCache is the sharded, concurrency-safe canonical verdict
// cache.
type smtVerdictCache struct {
	shards [smtCacheShards]smtCacheShard
}

func newSMTVerdictCache() *smtVerdictCache {
	c := &smtVerdictCache{}
	for i := range c.shards {
		c.shards[i].exact = make(map[[32]byte]*smtVerdict)
	}
	return c
}

func (c *smtVerdictCache) shard(key [32]byte) *smtCacheShard {
	return &c.shards[int(key[0])%smtCacheShards]
}

// lookup returns the cached verdict for fp, projecting a Sat hit's
// canonical model into this query's variable names.
func (c *smtVerdictCache) lookup(fp *smt.Canon) (smt.Result, map[string]bool, bool) {
	sh := c.shard(fp.Exact)
	sh.mu.RLock()
	v, ok := sh.exact[fp.Exact]
	sh.mu.RUnlock()
	if !ok {
		return smt.Unknown, nil, false
	}
	return v.res, fp.ProjectModel(v.model), true
}

// store records a solved verdict; the first writer of a key wins.
func (c *smtVerdictCache) store(fp *smt.Canon, res smt.Result, model map[int]bool) {
	sh := c.shard(fp.Exact)
	sh.mu.Lock()
	if _, dup := sh.exact[fp.Exact]; !dup {
		sh.exact[fp.Exact] = &smtVerdict{res: res, model: model}
	}
	sh.mu.Unlock()
}

// decideQuery runs the elimination pipeline over an asserted term
// sequence, falling back to asserting into s and solving. It returns the
// verdict, a boolean model for Sat (nil otherwise), and the stage that
// produced the verdict. s must be in its post-Reset state, with every term
// built from s.TB.
func decideQuery(s *smt.Solver, terms []*smt.Term, cache *smtVerdictCache, opts Options) (smt.Result, map[string]bool, queryOutcome) {
	if !opts.DisableSMTPrefilter {
		if smt.Prefilter(terms) == smt.Unsat {
			return smt.Unsat, nil, queryPrefilterUnsat
		}
	}
	var fp *smt.Canon
	useCache := cache != nil && !opts.DisableSMTCache
	if useCache {
		fp = smt.Fingerprint(terms)
		if res, model, ok := cache.lookup(fp); ok {
			return res, model, queryCacheExact
		}
	}
	for _, t := range terms {
		s.Assert(t)
	}
	res := s.Check()
	var model map[string]bool
	if res == smt.Sat {
		model = s.BoolModel()
	}
	if useCache {
		cache.store(fp, res, fp.CanonModel(model))
	}
	return res, model, querySolved
}
