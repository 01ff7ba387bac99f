package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/minic"
	"repro/internal/pinpoint"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workload"
)

// workers is the build and detection pool size of every workload:
// conc.Workers semantics, negative = GOMAXPROCS (the machine's CPUs).
const workers = -1

// instance is one set-up workload, ready to run ops. An op is one analysis
// of the workload's input: one batch run or one request.
type instance interface {
	describe() string
	// clients is the number of closed-loop clients; each waits for its
	// op to finish before it starts the next.
	clients() int
	// op runs client c's seq-th op without tracing.
	op(c, seq int) outcome
	// tracedOp runs the same op with spans under op id `op`, plus the
	// benchmark's replay of the layers where the workload has one.
	tracedOp(c, seq int, tr *tracer, op int) outcome
	// expect is client c's correctness gate.
	expect(c int) expectation
	close() error
}

// outcome is one op's result. latency covers only the analysis (or the
// request round trip), not the correctness gate.
type outcome struct {
	latency time.Duration
	reports []detect.JSONReport
	// counts are per-op layer counters read from returned results (traced
	// ops only).
	counts map[string]float64
	err    error
}

// workloads maps each workload name to its set-up. Each stresses
// different layers; README.md gives the reasons.
var workloads = map[string]func(cfg config) (instance, error){
	"cold_batch": func(cfg config) (instance, error) {
		s, _ := workload.SubjectByName("mysql")
		return newBatch(cfg, s, true, 1)
	},
	"bug_dense": func(cfg config) (instance, error) {
		s := workload.Subject{Name: "bugdense", Origin: "synthetic", PaperKLoC: 200, TrueBugs: 300, OpaqueTraps: 300}
		return newBatch(cfg, s, false, 2)
	},
	"serve_edit":   func(cfg config) (instance, error) { return newServe(cfg) },
	"warm_restart": func(cfg config) (instance, error) { return newRestart(cfg) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// serveSubject is the 8.5k-line program of serve_edit and warm_restart.
var serveSubject = workload.Subject{Name: "serve", Origin: "synthetic", PaperKLoC: 500, TrueBugs: 6, OpaqueTraps: 4}

// generate makes the workload's input. Every workload derives its
// generator seeds from the command-line seed, so the same seed gives the
// same inputs; k separates the inputs of one workload.
func generate(cfg config, s workload.Subject, taint bool, k int64) *workload.Generated {
	scale := 15
	if cfg.scale > 0 {
		scale = cfg.scale
	}
	return workload.Generate(s, workload.GenOptions{Scale: scale, Seed: cfg.seed*1_000_003 + k, Taint: taint})
}

func analyze(rt *pinpoint.Runtime, sess *core.Session, units []minic.NamedSource) (*core.Analysis, detect.Results, error) {
	a, err := sess.Update(units)
	if err != nil {
		return nil, detect.Results{}, err
	}
	return a, a.CheckAll(checkers.All(), rt.DetectOptions()), nil
}

// ---- cold_batch and bug_dense -------------------------------------------

// batch runs a fresh Session.Update plus CheckAll per op, with no store.
type batch struct {
	gen *workload.Generated
	rt  *pinpoint.Runtime
	exp expectation
}

func newBatch(cfg config, s workload.Subject, taint bool, k int64) (*batch, error) {
	b := &batch{gen: generate(cfg, s, taint, k)}
	rt, err := pinpoint.Open(pinpoint.Config{Workers: workers})
	if err != nil {
		return nil, err
	}
	b.rt = rt
	// The reference op doubles as the warm-up.
	_, res, err := analyze(rt, rt.NewSession(), b.gen.Units)
	if err != nil {
		return nil, err
	}
	if b.exp, err = newExpectation(&b.gen.Truth, toJSON(res.Reports)); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *batch) describe() string {
	return fmt.Sprintf("%s, %d lines, %d units, one client, workers=%d", b.gen.Subject.Name, b.gen.Lines, len(b.gen.Units), runtime.GOMAXPROCS(0))
}

func (b *batch) clients() int           { return 1 }
func (b *batch) expect(int) expectation { return b.exp }
func (b *batch) close() error           { return b.rt.Close() }

func (b *batch) op(int, int) outcome {
	t0 := time.Now()
	_, res, err := analyze(b.rt, b.rt.NewSession(), b.gen.Units)
	lat := time.Since(t0)
	if err != nil {
		return outcome{latency: lat, err: err}
	}
	return outcome{latency: lat, reports: toJSON(res.Reports)}
}

// tracedOp runs the Session path with spans around Update and CheckAll,
// then the benchmark's own replay of every layer. Both must return the
// reference bytes, so the replay can never measure a different program.
func (b *batch) tracedOp(_, _ int, tr *tracer, op int) outcome {
	root := tr.begin(op, 0, "op")
	sess := b.rt.NewSession()
	id := tr.begin(op, root, "core.update")
	a, err := sess.Update(b.gen.Units)
	tr.end(id)
	if err != nil {
		tr.end(root)
		return outcome{err: err}
	}
	tr.timings(op, id, a.Timings)
	id = tr.begin(op, root, "core.checkall")
	res := a.CheckAll(checkers.All(), b.rt.DetectOptions())
	tr.end(id)
	lat := tr.end(root)
	counts := map[string]float64{"core.reuse_ratio": reuseRatio(a.Artifacts)}

	reps, replayCounts, err := replay(tr, op, b.gen.Units, b.rt.DetectOptions())
	if err != nil {
		return outcome{latency: lat, err: fmt.Errorf("replay: %w", err)}
	}
	for k, v := range replayCounts {
		counts[k] = v
	}
	sessionJSON, _ := json.Marshal(toJSON(res.Reports))
	replayJSON, _ := json.Marshal(reps)
	if !bytes.Equal(sessionJSON, replayJSON) {
		return outcome{latency: lat, err: errors.New("replay report bytes differ from the Session path")}
	}
	return outcome{latency: lat, reports: reps, counts: counts}
}

// reuseRatio is the share of functions whose artifacts were reused.
func reuseRatio(s core.ArtifactStats) float64 {
	return ratio(s.Hits, s.Hits+s.Misses+s.Invalidated)
}

// ---- warm_restart ---------------------------------------------------------

// restart reopens a DiskStore populated in set-up on every op: a CI job
// restarting on its persistent cache.
type restart struct {
	gen *workload.Generated
	dir string
	exp expectation
	// ast is the input parsed once in set-up, for the minic hash replay.
	ast *minic.Program
}

func newRestart(cfg config) (*restart, error) {
	r := &restart{gen: generate(cfg, serveSubject, true, 3)}
	dir, err := os.MkdirTemp(cfg.workDir, "restart-")
	if err != nil {
		return nil, err
	}
	r.dir = dir
	if r.ast, err = minic.ParseProgram(r.gen.Units); err != nil {
		return nil, err
	}
	// Populate the store with one cold run, then take the reference from
	// a first restart and warm up with a second.
	rt, err := pinpoint.Open(pinpoint.Config{Workers: workers, StoreDir: dir})
	if err != nil {
		return nil, err
	}
	_, _, err = analyze(rt, rt.NewSession(), r.gen.Units)
	if cerr := rt.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		out := r.op(0, 0)
		if out.err != nil {
			return nil, out.err
		}
		if i == 0 {
			if r.exp, err = newExpectation(&r.gen.Truth, out.reports); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

func (r *restart) describe() string {
	return fmt.Sprintf("%s, %d lines, %d units, one client, workers=%d, DiskStore reopened per op", r.gen.Subject.Name, r.gen.Lines, len(r.gen.Units), runtime.GOMAXPROCS(0))
}

func (r *restart) clients() int           { return 1 }
func (r *restart) expect(int) expectation { return r.exp }
func (r *restart) close() error           { return os.RemoveAll(r.dir) }

func (r *restart) op(int, int) outcome {
	t0 := time.Now()
	rt, err := pinpoint.Open(pinpoint.Config{Workers: workers, StoreDir: r.dir})
	if err != nil {
		return outcome{err: err}
	}
	a, res, err := analyze(rt, rt.NewSession(), r.gen.Units)
	if cerr := rt.Close(); err == nil {
		err = cerr
	}
	lat := time.Since(t0)
	if err == nil {
		err = allHits(a)
	}
	if err != nil {
		return outcome{latency: lat, err: err}
	}
	return outcome{latency: lat, reports: toJSON(res.Reports)}
}

// allHits fails an op that rebuilt anything: the workload exists to
// measure the store read path, so a restart must serve every function.
func allHits(a *core.Analysis) error {
	if a.Artifacts.StoreHits != a.Sizes.Functions {
		return fmt.Errorf("restart served %d of %d functions from the store", a.Artifacts.StoreHits, a.Sizes.Functions)
	}
	return nil
}

// tracedOp opens the DiskStore itself so the timing decorator sits
// between the session and the store, then replays the minic hash over the
// input outside the op span (Update hashes every function on every op).
func (r *restart) tracedOp(_, _ int, tr *tracer, op int) outcome {
	root := tr.begin(op, 0, "op")
	id := tr.begin(op, root, "store.open")
	st, err := store.Open(r.dir, store.DiskOptions{})
	tr.end(id)
	if err != nil {
		tr.end(root)
		return outcome{err: err}
	}
	ts := tr.wrapStore(st, op)
	id = tr.begin(op, root, "pinpoint.open")
	rt, err := pinpoint.Open(pinpoint.Config{Workers: workers, Store: ts})
	tr.end(id)
	if err != nil {
		st.Close()
		tr.end(root)
		return outcome{err: err}
	}
	id = tr.begin(op, root, "core.update")
	a, err := rt.NewSession().Update(r.gen.Units)
	tr.end(id)
	var res detect.Results
	if err == nil {
		tr.timings(op, id, a.Timings)
		id = tr.begin(op, root, "core.checkall")
		res = a.CheckAll(checkers.All(), rt.DetectOptions())
		tr.end(id)
	}
	id = tr.begin(op, root, "store.close")
	if cerr := rt.Close(); err == nil {
		err = cerr
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	tr.end(id)
	lat := tr.end(root)
	if err == nil {
		err = allHits(a)
	}
	if err != nil {
		return outcome{latency: lat, err: err}
	}
	hashReplay(tr, op, r.ast)
	counts := detectCounts(res)
	counts["core.reuse_ratio"] = reuseRatio(a.Artifacts)
	return outcome{latency: lat, reports: toJSON(res.Reports), counts: counts}
}

// ---- serve_edit -----------------------------------------------------------

// serve is an in-process server on a loopback listener backed by a
// DiskStore, with two closed-loop clients on two projects: client 0 edits
// one `drive_*` function per request (one function rebuilt and persisted),
// client 1 resends its unchanged program (every artifact hits).
type serve struct {
	gens   [2]*workload.Generated
	asts   [2]*minic.Program
	bodies [2][]byte // client 1's fixed request body; client 0 edits per request
	// edits numbers the editor's requests, so each differs from the one
	// before; only the editor's goroutine touches it.
	edits  int
	exps   [2]expectation
	dir    string
	st     store.Store
	ts     *timedStore
	url    string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

var serveProjects = [2]string{"editor", "reader"}

func newServe(cfg config) (s *serve, err error) {
	s = &serve{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	for c := range s.gens {
		s.gens[c] = generate(cfg, serveSubject, true, int64(4+c))
		if s.asts[c], err = minic.ParseProgram(s.gens[c].Units); err != nil {
			return nil, err
		}
		// The batch reference each response must equal.
		var rt *pinpoint.Runtime
		if rt, err = pinpoint.Open(pinpoint.Config{Workers: workers}); err != nil {
			return nil, err
		}
		var res detect.Results
		if _, res, err = analyze(rt, rt.NewSession(), s.gens[c].Units); err != nil {
			return nil, err
		}
		if s.exps[c], err = newExpectation(&s.gens[c].Truth, toJSON(res.Reports)); err != nil {
			return nil, err
		}
	}
	if s.bodies[1], err = requestBody(serveProjects[1], s.gens[1].Units); err != nil {
		return nil, err
	}

	if s.dir, err = os.MkdirTemp(cfg.workDir, "serve-"); err != nil {
		return nil, err
	}
	if s.st, err = store.Open(s.dir, store.DiskOptions{}); err != nil {
		return nil, err
	}
	// The decorator is installed only for traced runs; end-to-end runs
	// hand the server the DiskStore itself.
	var st store.Store = s.st
	if cfg.trace {
		s.ts = &timedStore{Store: s.st}
		st = s.ts
	}
	rt, err := pinpoint.Open(pinpoint.Config{
		Workers:     workers,
		MaxInFlight: workers,
		Store:       st,
		// A nil logger writes an INFO line to stderr per request.
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	srv := rt.NewServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.done = make(chan error, 1)
	go func() { s.done <- srv.Serve(ctx, ln, 5*time.Second) }()
	s.url = "http://" + ln.Addr().String() + "/v1/analyze"
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: len(s.gens), MaxConnsPerHost: len(s.gens)}}

	// The first, cold request per project belongs to set-up.
	for c := range s.gens {
		if out := s.op(c, 0); out.err == nil {
			err = s.exps[c].check(out.reports)
		} else {
			err = out.err
		}
		if err != nil {
			return nil, fmt.Errorf("first request of %s: %w", serveProjects[c], err)
		}
	}
	return s, nil
}

func requestBody(project string, units []minic.NamedSource) ([]byte, error) {
	req := server.AnalyzeRequest{Project: project, Units: make([]server.UnitJSON, len(units))}
	for i, u := range units {
		req.Units[i] = server.UnitJSON{Name: u.Name, Src: u.Src}
	}
	return json.Marshal(&req)
}

// editUnits inserts a distinct statement at the top of the first `drive_*`
// function (the loadgen "edit" mode): consecutive requests differ in
// exactly one function body.
func editUnits(units []minic.NamedSource, n int) []minic.NamedSource {
	out := append([]minic.NamedSource(nil), units...)
	for i, u := range out {
		if j := strings.Index(u.Src, "\nvoid drive_"); j >= 0 {
			k := j + 1 + strings.IndexByte(u.Src[j+1:], '\n')
			out[i].Src = u.Src[:k+1] + fmt.Sprintf("\tseed = seed + %d;\n", n%1021+1) + u.Src[k+1:]
			return out
		}
	}
	return out
}

func (s *serve) describe() string {
	return fmt.Sprintf("%s, %d lines per project, two closed-loop clients (editor, reader), workers=%d, DiskStore", s.gens[0].Subject.Name, s.gens[0].Lines, runtime.GOMAXPROCS(0))
}

func (s *serve) clients() int             { return len(s.gens) }
func (s *serve) expect(c int) expectation { return s.exps[c] }

func (s *serve) close() error {
	if s.cancel != nil {
		s.cancel()
		<-s.done
		s.client.CloseIdleConnections()
	}
	var err error
	if s.st != nil {
		err = s.st.Close()
	}
	if s.dir != "" {
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// request sends client c's next request and decodes the reply. The
// latency covers sending the body through reading the whole reply.
func (s *serve) request(c int) (time.Duration, *server.AnalyzeResponse, error) {
	body := s.bodies[c]
	if c == 0 {
		s.edits++
		var err error
		if body, err = requestBody(serveProjects[0], editUnits(s.gens[0].Units, s.edits)); err != nil {
			return 0, nil, err
		}
	}
	t0 := time.Now()
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return time.Since(t0), nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return lat, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var ar server.AnalyzeResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		return lat, nil, fmt.Errorf("bad response body: %w", err)
	}
	return lat, &ar, nil
}

func (s *serve) op(c, _ int) outcome {
	lat, ar, err := s.request(c)
	if err != nil {
		return outcome{latency: lat, err: err}
	}
	return outcome{latency: lat, reports: ar.Reports}
}

// tracedOp spans the client request and attaches the response's timing
// partition as child intervals.
func (s *serve) tracedOp(c, _ int, tr *tracer, op int) outcome {
	start := tr.now()
	lat, ar, err := s.request(c)
	if err != nil {
		return outcome{latency: lat, err: err}
	}
	tr.serverTiming(op, start, lat, ar.Timing)
	st := ar.Stats
	counts := map[string]float64{
		"core.reuse_ratio":          ratio(st.ArtifactHits, st.ArtifactHits+st.ArtifactMisses+st.ArtifactInvalidated),
		"detect.summary_hit_ratio":  ratio(st.SummaryCacheHits, st.SummaryCacheHits+st.SummaryCacheMisses),
		"detect.reports":            float64(len(ar.Reports)),
		"smt.queries":               float64(st.SMTQueries),
		"smt.solved":                float64(st.SMTSolved),
		"smt.cache_hits":            float64(st.SMTCacheHits),
		"smt.prefilter_unsat":       float64(st.SMTPrefilterUnsat),
		"smt.elimination_ratio":     ratio(st.SMTCacheHits+st.SMTPrefilterUnsat, st.SMTQueries),
		"smt.reported_ms":           float64(ar.Timing.SMTNs) / 1e6,
		"server.unattributed_ratio": 1 - float64(ar.Timing.TotalNs)/float64(lat.Nanoseconds()),
	}
	return outcome{latency: lat, reports: ar.Reports, counts: counts}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
