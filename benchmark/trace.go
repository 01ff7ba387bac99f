package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkers"
	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/minic"
	"repro/internal/modref"
	"repro/internal/pta"
	"repro/internal/seg"
	"repro/internal/server"
	"repro/internal/ssa"
	"repro/internal/store"
	"repro/internal/transform"
)

// span is one traced interval. Spans of one op share Op; Parent is the ID
// of the enclosing span (0 = top level). Spans are kept in memory and
// written out when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Alloc is the bytes the process allocated during the span; only
	// meaningful for spans around calls that run alone.
	Alloc uint64 `json:"alloc_bytes"`
}

// tracer records spans from the benchmark's own code, around its calls
// into each layer. The program itself is not instrumented.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	store storeCounters
}

// storeCounters are the totals of every call through a timedStore.
type storeCounters struct {
	gets, hits, getNs, puts, putBytes, putNs atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its ID.
func (t *tracer) begin(op, parent int, name string) int {
	alloc := allocBytes()
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: start, Alloc: alloc})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	end := t.now()
	alloc := allocBytes()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = end
	s.Alloc = alloc - s.Alloc
	return time.Duration(s.End - s.Start)
}

// interval records a span whose extent the program reported rather than
// the benchmark observed.
func (t *tracer) interval(op, parent int, name string, start, dur int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: start, End: start + dur})
	return len(t.spans)
}

// timings attaches Session.Update's reported stage durations to the span
// around the call, laid end to end from its start: the parent's self time
// is then the part of Update no Timings field covers.
func (t *tracer) timings(op, parent int, tm core.Timings) {
	t.mu.Lock()
	start := t.spans[parent-1].Start
	t.mu.Unlock()
	for _, f := range []struct {
		name string
		d    time.Duration
	}{
		{"timings.parse", tm.Parse}, {"timings.store_load", tm.StoreLoad}, {"timings.lower", tm.Lower},
		{"timings.ssa", tm.SSA}, {"timings.modref", tm.ModRef}, {"timings.transform", tm.Transform},
		{"timings.pta", tm.PTA}, {"timings.seg", tm.SEG}, {"timings.store_save", tm.StoreSave},
	} {
		t.interval(op, parent, f.name, start, int64(f.d))
		start += int64(f.d)
	}
}

// serverTiming records a client request as the op span and the
// response's timing partition as child intervals. The server's share sits
// at the end of the request; the rest is transport and client work.
func (t *tracer) serverTiming(op int, start int64, lat time.Duration, tm server.TimingJSON) {
	root := t.interval(op, 0, "op", start, int64(lat))
	at := start + int64(lat) - tm.TotalNs
	total := t.interval(op, root, "server.total", at, tm.TotalNs)
	for _, f := range []struct {
		name string
		ns   int64
	}{
		{"server.decode", tm.DecodeNs}, {"server.queue_wait", tm.QueueWaitNs}, {"server.session_wait", tm.SessionWaitNs},
		{"server.build", tm.BuildNs}, {"server.detect", tm.DetectNs},
	} {
		id := t.interval(op, total, f.name, at, f.ns)
		switch f.name {
		case "server.build":
			sub := at
			for _, g := range []struct {
				name string
				ns   int64
			}{{"timings.parse", tm.ParseNs}, {"timings.store_load", tm.StoreLoadNs}, {"timings.store_save", tm.StoreSaveNs}} {
				t.interval(op, id, g.name, sub, g.ns)
				sub += g.ns
			}
		case "server.detect":
			t.interval(op, id, "server.smt", at, tm.SMTNs)
		}
		at += f.ns
	}
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
var allocMu sync.Mutex

func allocBytes() uint64 {
	allocMu.Lock()
	defer allocMu.Unlock()
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes computes each span's self time: its duration minus the part
// of it that its children's intervals cover.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, at := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], at), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// ---- store decorator -------------------------------------------------------

// timedStore times every Get and Put of the store it wraps and records a
// span for each while a tracer is attached.
type timedStore struct {
	store.Store
	tr atomic.Pointer[tracer]
	op int
}

// wrapStore wraps st for op (-1 when concurrent clients share the store).
func (t *tracer) wrapStore(st store.Store, op int) *timedStore {
	ts := &timedStore{Store: st, op: op}
	ts.tr.Store(t)
	return ts
}

func (s *timedStore) Get(ns, key string) ([]byte, bool, error) {
	tr := s.tr.Load()
	if tr == nil {
		return s.Store.Get(ns, key)
	}
	start := tr.now()
	val, ok, err := s.Store.Get(ns, key)
	d := tr.now() - start
	tr.interval(s.op, 0, "store.get", start, d)
	tr.store.gets.Add(1)
	tr.store.getNs.Add(d)
	if ok {
		tr.store.hits.Add(1)
	}
	return val, ok, err
}

func (s *timedStore) Put(ns, key string, val []byte) error {
	tr := s.tr.Load()
	if tr == nil {
		return s.Store.Put(ns, key, val)
	}
	start := tr.now()
	err := s.Store.Put(ns, key, val)
	d := tr.now() - start
	tr.interval(s.op, 0, "store.put", start, d)
	tr.store.puts.Add(1)
	tr.store.putNs.Add(d)
	tr.store.putBytes.Add(int64(len(val)))
	return err
}

// ---- layer replay ------------------------------------------------------------

// replay runs the pipeline from the benchmark's own code, one span per
// layer call: parse, AST hashing, lower, SSA, Mod/Ref, the connector
// transform, PTA, SEG and detection. Per-function stages fan out on the
// same worker pool the Session uses, under one span per stage. The reports
// must equal the Session path's byte for byte.
func replay(tr *tracer, op int, units []minic.NamedSource, dopts detect.Options) ([]detect.JSONReport, map[string]float64, error) {
	var (
		prog  *minic.Program
		m     *ir.Module
		infos []*ssa.Info
		mr    *modref.Result
		width int
		prs   []*pta.Result
		segs  []*seg.Graph
	)
	stages := []struct {
		name string
		run  func() error
	}{
		{"minic.parse", func() (err error) {
			prog, err = minic.ParseProgram(units)
			return err
		}},
		{"minic.hash", func() error {
			hashAll(prog)
			return nil
		}},
		{"lower", func() (err error) {
			m, err = lower.ProgramWith(prog, workers)
			return err
		}},
		{"ssa", func() error {
			infos = make([]*ssa.Info, len(m.Funcs))
			return conc.ForEach(len(m.Funcs), workers, func(_, i int) (err error) {
				infos[i], err = ssa.Transform(m.Funcs[i])
				return err
			})
		}},
		{"modref", func() error {
			mr, width = modref.AnalyzeWith(m, workers)
			return nil
		}},
		{"transform", func() error {
			return transform.ApplyFuncsWith(m, m.Funcs, func(f *ir.Func) *modref.Summary { return mr.Summaries[f] }, workers)
		}},
		{"pta", func() error {
			prs = make([]*pta.Result, len(m.Funcs))
			return conc.ForEach(len(m.Funcs), workers, func(_, i int) (err error) {
				prs[i], err = pta.Analyze(m.Funcs[i], infos[i], pta.Options{})
				return err
			})
		}},
		{"seg", func() error {
			segs = make([]*seg.Graph, len(m.Funcs))
			return conc.ForEach(len(m.Funcs), workers, func(_, i int) error {
				segs[i] = seg.Build(m.Funcs[i], infos[i], prs[i])
				return nil
			})
		}},
	}
	root := tr.begin(op, 0, "replay")
	defer tr.end(root)
	for _, st := range stages {
		id := tr.begin(op, root, st.name)
		err := st.run()
		tr.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", st.name, err)
		}
	}

	counts := map[string]float64{
		"lower.ir_instrs":        float64(m.LineCount()),
		"modref.wavefront_width": float64(width),
	}
	infoOf := make(map[*ir.Func]*ssa.Info, len(m.Funcs))
	segOf := make(map[*ir.Func]*seg.Graph, len(m.Funcs))
	var ps pta.Stats
	for i, f := range m.Funcs {
		infoOf[f], segOf[f] = infos[i], segs[i]
		ps.Add(prs[i].Stats)
		counts["ssa.cond_nodes"] += float64(infos[i].Conds.NumNodes())
		counts["seg.nodes"] += float64(segs[i].NumNodes())
		counts["seg.edges"] += float64(segs[i].NumEdges())
	}
	counts["pta.linear_queries"] = float64(ps.LinearQueries)
	counts["pta.linear_unsat_ratio"] = ratio(ps.LinearUnsat, ps.LinearQueries)

	id := tr.begin(op, root, "detect")
	res := detect.CheckAll(detect.NewProgram(m, infoOf, segOf), checkers.All(), dopts)
	tr.end(id)
	for k, v := range detectCounts(res) {
		counts[k] = v
	}
	return toJSON(res.Reports), counts, nil
}

// hashAll is the Session's per-Update AST hashing: minic.HashFunc over
// every function declaration.
func hashAll(prog *minic.Program) {
	for _, fn := range prog.Funcs() {
		minic.HashFunc(fn)
	}
}

// hashReplay times hashAll on the op's input where the hashing happens
// inside the program, out of the benchmark's sight.
func hashReplay(tr *tracer, op int, prog *minic.Program) {
	id := tr.begin(op, 0, "minic.hash")
	hashAll(prog)
	tr.end(id)
}

// detectCounts reads the detection and SMT counters of one CheckAll.
func detectCounts(res detect.Results) map[string]float64 {
	var st detect.Stats
	for _, cs := range res.Checkers {
		st.Sources += cs.Stats.Sources
		st.Candidates += cs.Stats.Candidates
		st.SMTQueries += cs.Stats.SMTQueries
		st.SMTSolved += cs.Stats.SMTSolved
		st.SMTCacheHits += cs.Stats.SMTCacheHits
		st.SMTPrefilterUnsat += cs.Stats.SMTPrefilterUnsat
		st.SMTTime += cs.Stats.SMTTime
	}
	return map[string]float64{
		"detect.sources":           float64(st.Sources),
		"detect.candidates":        float64(st.Candidates),
		"detect.summary_hit_ratio": ratio(res.SummaryHits, res.SummaryHits+res.SummaryMisses),
		"detect.reports":           float64(len(res.Reports)),
		"smt.queries":              float64(st.SMTQueries),
		"smt.solved":               float64(st.SMTSolved),
		"smt.cache_hits":           float64(st.SMTCacheHits),
		"smt.prefilter_unsat":      float64(st.SMTPrefilterUnsat),
		"smt.elimination_ratio":    ratio(st.SMTCacheHits+st.SMTPrefilterUnsat, st.SMTQueries),
		"smt.reported_ms":          float64(st.SMTTime) / 1e6,
	}
}

// ---- traced run ----------------------------------------------------------------

// perLayer lists every per-layer metric with its unit, in the order
// BENCHMARK.json names them. A metric whose layer does not run on a
// workload, or runs where the benchmark cannot see it, reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"minic.parse_ms", "ms"}, {"minic.hash_ms", "ms"}, {"minic.alloc_mb", "MiB"},
	{"lower.ms", "ms"}, {"lower.alloc_mb", "MiB"}, {"lower.ir_instrs", "count"},
	{"ssa.ms", "ms"}, {"ssa.alloc_mb", "MiB"}, {"ssa.cond_nodes", "count"},
	{"modref.ms", "ms"}, {"modref.wavefront_width", "count"},
	{"transform.ms", "ms"},
	{"pta.ms", "ms"}, {"pta.alloc_mb", "MiB"}, {"pta.linear_queries", "count"}, {"pta.linear_unsat_ratio", "ratio"},
	{"seg.ms", "ms"}, {"seg.alloc_mb", "MiB"}, {"seg.nodes", "count"}, {"seg.edges", "count"},
	{"detect.ms", "ms"}, {"detect.alloc_mb", "MiB"}, {"detect.sources", "count"}, {"detect.candidates", "count"},
	{"detect.summary_hit_ratio", "ratio"}, {"detect.reports", "count"},
	{"smt.queries", "count"}, {"smt.solved", "count"}, {"smt.cache_hits", "count"}, {"smt.prefilter_unsat", "count"},
	{"smt.elimination_ratio", "ratio"}, {"smt.reported_ms", "ms"},
	{"core.update_ms", "ms"}, {"core.reuse_ratio", "ratio"}, {"core.untimed_ms", "ms"}, {"core.store_load_ms", "ms"},
	{"store.open_ms", "ms"}, {"store.get_ms", "ms"}, {"store.gets", "count"}, {"store.hit_ratio", "ratio"},
	{"store.put_ms", "ms"}, {"store.put_mb", "MiB"},
	{"server.decode_ms", "ms"}, {"server.queue_wait_ms", "ms"}, {"server.session_wait_ms", "ms"},
	{"server.build_ms", "ms"}, {"server.detect_ms", "ms"}, {"server.smt_ms", "ms"}, {"server.other_ms", "ms"},
	{"server.unattributed_ratio", "ratio"},
	{"gc.cpu_ratio", "ratio"}, {"gc.count", "count"}, {"trace.overhead_ratio", "ratio"},
}

// opSpans summarizes the spans of one op by name: total duration, self
// time and allocation.
type opSpans struct {
	dur, self map[string]int64
	alloc     map[string]uint64
}

// layerValues derives one traced op's per-layer values from its spans,
// setting only the values the op carries. Where the benchmark replays a
// layer (the batch workloads), the replay's span counts; otherwise the
// program-reported child interval does.
func layerValues(s opSpans, counts map[string]float64) map[string]float64 {
	v := map[string]float64{}
	set := func(key string, m map[string]int64, names ...string) {
		for _, n := range names {
			if x, ok := m[n]; ok {
				v[key] = float64(x) / 1e6
				return
			}
		}
	}
	// Allocation is read only around the benchmark's own calls that run
	// alone; the first span present counts.
	setAlloc := func(key string, names ...string) {
		for _, n := range names {
			if _, ok := s.dur[n]; ok {
				v[key] = float64(s.alloc[n]) / (1 << 20)
				return
			}
		}
	}
	set("minic.parse_ms", s.self, "minic.parse", "timings.parse")
	set("minic.hash_ms", s.self, "minic.hash")
	if _, ok := s.dur["minic.hash"]; ok {
		v["minic.alloc_mb"] = float64(s.alloc["minic.parse"]+s.alloc["minic.hash"]) / (1 << 20)
	}
	for _, l := range []string{"lower", "ssa", "modref", "transform", "pta", "seg"} {
		set(l+".ms", s.self, l, "timings."+l)
		setAlloc(l+".alloc_mb", l)
	}
	set("detect.ms", s.dur, "detect", "core.checkall", "server.detect")
	setAlloc("detect.alloc_mb", "detect", "core.checkall")
	set("core.update_ms", s.dur, "core.update", "server.build")
	set("core.untimed_ms", s.self, "core.update", "server.build")
	set("core.store_load_ms", s.dur, "timings.store_load")
	set("store.open_ms", s.dur, "store.open")
	for _, p := range []string{"decode", "queue_wait", "session_wait", "build", "detect", "smt"} {
		set("server."+p+"_ms", s.dur, "server."+p)
	}
	set("server.other_ms", s.self, "server.total")
	for k, c := range counts {
		v[k] = c
	}
	return v
}

// gcWindow accumulates runtime/metrics GC counters over traced op windows.
type gcWindow struct {
	samples       []metrics.Sample
	cycles, gcCPU float64
	usedCPU       float64
	open          [3]float64
}

func newGCWindow() *gcWindow {
	return &gcWindow{samples: []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}}
}

func (g *gcWindow) read() [3]float64 {
	metrics.Read(g.samples)
	return [3]float64{
		float64(g.samples[0].Value.Uint64()),
		g.samples[1].Value.Float64(),
		g.samples[2].Value.Float64() - g.samples[3].Value.Float64(),
	}
}

func (g *gcWindow) start() { g.open = g.read() }

func (g *gcWindow) stop() {
	now := g.read()
	g.cycles += now[0] - g.open[0]
	g.gcCPU += now[1] - g.open[1]
	g.usedCPU += now[2] - g.open[2]
}

// traceRun measures per-layer metrics. Untraced and traced ops alternate
// (one client) or run in two halves of the window (several clients), and
// trace.overhead_ratio compares their median latencies. Every op passes
// the same correctness gate as in the end-to-end run.
func traceRun(cfg config, w instance, dur time.Duration) (*result, error) {
	tr := newTracer()
	gcw := newGCWindow()
	var (
		untraced, traced []time.Duration
		counts           = map[int]map[string]float64{}
		mu               sync.Mutex
		nextOp           atomic.Int64
	)
	tracedOp := func(c, seq int) outcome {
		op := int(nextOp.Add(1))
		out := w.tracedOp(c, seq, tr, op)
		mu.Lock()
		defer mu.Unlock()
		if out.err == nil {
			traced = append(traced, out.latency)
			counts[op] = out.counts
		}
		return out
	}
	untracedOp := func(c, seq int) outcome {
		out := w.op(c, seq)
		mu.Lock()
		defer mu.Unlock()
		if out.err == nil {
			untraced = append(untraced, out.latency)
		}
		return out
	}

	settle()
	var loop loopResult
	if w.clients() == 1 {
		loop = closedLoop(w, dur, func(c, seq int) outcome {
			if seq%2 == 0 {
				return untracedOp(c, seq)
			}
			gcw.start()
			defer gcw.stop()
			return tracedOp(c, seq)
		})
	} else {
		a := closedLoop(w, dur/2, untracedOp)
		if sv, ok := w.(*serve); ok && sv.ts != nil {
			sv.ts.tr.Store(tr)
		}
		gcw.start()
		b := closedLoop(w, dur-dur/2, tracedOp)
		gcw.stop()
		if sv, ok := w.(*serve); ok && sv.ts != nil {
			sv.ts.tr.Store(nil)
			// The server hashes every function of the request's program
			// out of sight; replay that on each project's input.
			for c := range sv.asts {
				for i := 0; i < 5; i++ {
					hashReplay(tr, int(nextOp.Add(1)), sv.asts[c])
				}
			}
		}
		loop = a.merge(b)
	}

	res := &result{Metrics: map[string]metric{}}
	res.Attempted, res.Failed, res.Correct = loop.attempted, loop.failed, loop.failed == 0
	res.notes = loop.errorNotes()
	if len(traced) == 0 || len(untraced) == 0 {
		return nil, fmt.Errorf("traced run completed %d traced and %d untraced ops; raise --seconds", len(traced), len(untraced))
	}

	// Per-layer values: the median over the ops that carry each value.
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	self := selfTimes(spans)
	byOp := map[int]*opSpans{}
	for _, s := range spans {
		o := byOp[s.Op]
		if o == nil {
			o = &opSpans{dur: map[string]int64{}, self: map[string]int64{}, alloc: map[string]uint64{}}
			byOp[s.Op] = o
		}
		o.dur[s.Name] += s.End - s.Start
		o.self[s.Name] += self[s.ID]
		o.alloc[s.Name] += s.Alloc
	}
	values := map[string][]float64{}
	for op, o := range byOp {
		for k, v := range layerValues(*o, counts[op]) {
			values[k] = append(values[k], v)
		}
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{median(values[m.name]), m.unit}
	}

	n := float64(len(traced))
	sc := &tr.store
	res.Metrics["store.gets"] = metric{float64(sc.gets.Load()) / n, "count"}
	res.Metrics["store.get_ms"] = metric{float64(sc.getNs.Load()) / 1e6 / n, "ms"}
	res.Metrics["store.hit_ratio"] = metric{ratio(int(sc.hits.Load()), int(sc.gets.Load())), "ratio"}
	res.Metrics["store.put_ms"] = metric{float64(sc.putNs.Load()) / 1e6 / n, "ms"}
	res.Metrics["store.put_mb"] = metric{float64(sc.putBytes.Load()) / (1 << 20) / n, "MiB"}
	res.Metrics["gc.count"] = metric{gcw.cycles / n, "count"}
	gcRatio := 0.0
	if gcw.usedCPU > 0 {
		gcRatio = gcw.gcCPU / gcw.usedCPU
	}
	res.Metrics["gc.cpu_ratio"] = metric{gcRatio, "ratio"}
	res.Metrics["trace.overhead_ratio"] = metric{medianDur(traced)/medianDur(untraced) - 1, "ratio"}

	path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	res.notes = append(res.notes,
		fmt.Sprintf("workload %s seed %d: %s", cfg.workload, cfg.seed, w.describe()),
		fmt.Sprintf("traced run: %d traced and %d untraced ops, %d spans written to %s", len(traced), len(untraced), len(spans), path))
	return res, nil
}
