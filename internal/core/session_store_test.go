package core_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/minic"
	"repro/internal/store"
	"repro/internal/wirebin"
	"repro/internal/workload"
)

// openDisk opens a DiskStore in dir, failing the test on error.
func openDisk(t *testing.T, dir string) *store.DiskStore {
	t.Helper()
	st, err := store.Open(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// unitFuncCounts parses each unit and returns how many functions it
// defines.
func unitFuncCounts(t *testing.T, units []minic.NamedSource) []int {
	t.Helper()
	counts := make([]int, len(units))
	for i, u := range units {
		f, err := minic.ParseFile(u.Name, u.Src)
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = len(f.Funcs)
	}
	return counts
}

// unitsWithFuncs counts the units that define at least one function: the
// units a session persists a record for.
func unitsWithFuncs(t *testing.T, units []minic.NamedSource) int {
	t.Helper()
	n := 0
	for _, c := range unitFuncCounts(t, units) {
		if c > 0 {
			n++
		}
	}
	return n
}

// unitKey is the store key of unit i's artifact record.
func unitKey(i int) string { return fmt.Sprintf("unit-%d", i) }

// recordPath is the file a DiskStore in dir keeps the record (ns, key) in.
func recordPath(dir, ns, key string) string {
	return filepath.Join(dir, hex.EncodeToString([]byte(ns+"\x00"+key))+".rec")
}

// putLog is a Store that records the keys of every Put it forwards.
type putLog struct {
	store.Store
	keys []string
}

func (p *putLog) Put(ns, key string, val []byte) error {
	p.keys = append(p.keys, key)
	return p.Store.Put(ns, key, val)
}

// putRetiredVerdicts writes records in the layout earlier versions used to
// persist SMT verdicts: "verdict" records (a result byte plus 5-byte
// canonical-model pairs) and "vshape" Unsat markers, keyed by hex formula
// digests. Stores written by those versions still carry them.
func putRetiredVerdicts(t *testing.T, st store.Store) {
	t.Helper()
	for i := 0; i < 16; i++ {
		key := hex.EncodeToString(bytes.Repeat([]byte{byte(i)}, 32))
		if err := st.Put("verdict", key, []byte{1, byte(i), 0, 0, 0, 1}); err != nil {
			t.Fatal(err)
		}
		if err := st.Put("vshape", key, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionStoreWarmRestartEquivalence is the persistent-store contract:
// a fresh session pointed at a populated store directory — a restarted
// server — must produce reports byte-identical to a cold build AND to an
// in-process warm session, while rebuilding zero unchanged artifacts. The
// retiredVerdicts case restarts on a store that also holds the SMT-verdict
// records earlier versions persisted: they are dead weight, never a miss
// or a changed report.
func TestSessionStoreWarmRestartEquivalence(t *testing.T) {
	gen := workload.Generate(workload.Subjects[2], workload.GenOptions{Scale: 140, Taint: true})

	cases := []struct {
		workers         int
		retiredVerdicts bool
	}{
		{1, false},
		{runtime.GOMAXPROCS(0), false},
		{1, true},
	}
	for _, tc := range cases {
		workers := tc.workers
		dir := t.TempDir()
		specs := checkers.All()
		dopts := detect.Options{Workers: workers}

		// Cold: no store at all.
		cold := core.NewSession(core.BuildOptions{Workers: workers})
		coldA, err := cold.Update(gen.Units)
		if err != nil {
			t.Fatal(err)
		}
		coldRes := normalizeResults(coldA.CheckAll(specs, dopts))

		// First process: populate the store.
		st1 := openDisk(t, dir)
		s1 := core.NewSession(core.BuildOptions{Workers: workers, Store: st1})
		a1, err := s1.Update(gen.Units)
		if err != nil {
			t.Fatal(err)
		}
		if hits := s1.ArtifactStats().StoreHits; hits != 0 {
			t.Fatalf("first build had %d store hits; want 0", hits)
		}
		warmRes := normalizeResults(a1.CheckAll(specs, dopts))
		if tc.retiredVerdicts {
			putRetiredVerdicts(t, st1)
		}
		if err := st1.Close(); err != nil {
			t.Fatal(err)
		}

		// Second process: same directory, empty memory.
		st2 := openDisk(t, dir)
		s2 := core.NewSession(core.BuildOptions{Workers: workers, Store: st2})
		a2, err := s2.Update(gen.Units)
		if err != nil {
			t.Fatal(err)
		}
		stats := s2.ArtifactStats()
		if stats.Misses != 0 || stats.Invalidated != 0 {
			t.Fatalf("warm restart rebuilt artifacts: %+v", stats)
		}
		if stats.StoreHits != stats.Hits || stats.StoreHits == 0 {
			t.Fatalf("warm restart stats %+v: want every hit store-loaded", stats)
		}
		// The record holds the front half (IR, SSA info): nothing is
		// lowered or SSA-converted again. The back half (PTA, SEG) is
		// rebuilt from it in the wavefront.
		if tm := a2.Timings; tm.Lower != 0 || tm.SSA != 0 || tm.PTA == 0 || tm.SEG == 0 {
			t.Fatalf("warm restart timings %+v: want Lower = SSA = 0 and PTA, SEG > 0", tm)
		}
		// One record per unit that defines functions, each read once.
		if ss := st2.Stat(); ss.Hits != int64(unitsWithFuncs(t, gen.Units)) || ss.Misses != 0 {
			t.Fatalf("warm restart store stats %+v: want one hit per unit with functions, no misses", ss)
		}
		restartRes := normalizeResults(a2.CheckAll(specs, dopts))
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}

		cb := reportsJSON(t, coldRes.Reports)
		wb := reportsJSON(t, warmRes.Reports)
		rb := reportsJSON(t, restartRes.Reports)
		if !bytes.Equal(rb, cb) {
			t.Fatalf("workers=%d: restart reports differ from cold\nrestart: %s\ncold: %s", workers, rb, cb)
		}
		if !bytes.Equal(rb, wb) {
			t.Fatalf("workers=%d: restart reports differ from in-process warm", workers)
		}
		if coldA.Sizes != a2.Sizes {
			t.Fatalf("workers=%d: sizes differ: cold %+v restart %+v", workers, coldA.Sizes, a2.Sizes)
		}
		if coldA.PTAStats != a2.PTAStats {
			t.Fatalf("workers=%d: PTA stats differ", workers)
		}
	}
}

// TestSessionStoreWarmRestartAfterEdit checks the harder path: the store
// was populated, the process restarted, AND the sources changed. Unedited
// functions load from disk; the edit's invalidation frontier rebuilds; the
// result matches a cold build of the edited program.
func TestSessionStoreWarmRestartAfterEdit(t *testing.T) {
	gen := workload.Generate(workload.Subjects[2], workload.GenOptions{Scale: 140, Taint: true})
	if len(gen.Units) < 2 {
		t.Fatalf("workload has %d units; want multi-unit", len(gen.Units))
	}
	dir := t.TempDir()

	st1 := openDisk(t, dir)
	s1 := core.NewSession(core.BuildOptions{Store: st1})
	if _, err := s1.Update(gen.Units); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	editedUnits := append(gen.Units[:0:0], gen.Units...)
	editedUnits[0] = editUnit(t, editedUnits[0])

	st2 := openDisk(t, dir)
	s2 := core.NewSession(core.BuildOptions{Store: st2})
	a2, err := s2.Update(editedUnits)
	if err != nil {
		t.Fatal(err)
	}
	stats := s2.ArtifactStats()
	if stats.StoreHits == 0 {
		t.Fatalf("edited restart loaded nothing: %+v", stats)
	}
	if stats.Invalidated+stats.Misses == 0 {
		t.Fatalf("edited restart rebuilt nothing: %+v", stats)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	cold := core.NewSession(core.BuildOptions{})
	coldA, err := cold.Update(editedUnits)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, "edited-restart", a2, coldA, 1)
}

// TestSessionStoreCorruption covers the crash-safety contract end to end:
// a truncated or bit-flipped record file is detected, the affected
// artifacts rebuild from source, and reports never differ from a cold
// build.
func TestSessionStoreCorruption(t *testing.T) {
	gen := workload.Generate(workload.Subjects[2], workload.GenOptions{Scale: 140, Taint: true})
	specs := checkers.All()
	dopts := detect.Options{Workers: 1}

	cold := core.NewSession(core.BuildOptions{})
	coldA, err := cold.Update(gen.Units)
	if err != nil {
		t.Fatal(err)
	}
	coldB := reportsJSON(t, normalizeResults(coldA.CheckAll(specs, dopts)).Reports)

	corrupt := func(t *testing.T, name string, mutate func(t *testing.T, path string)) {
		dir := t.TempDir()
		st1 := openDisk(t, dir)
		s1 := core.NewSession(core.BuildOptions{Store: st1})
		if _, err := s1.Update(gen.Units); err != nil {
			t.Fatal(err)
		}
		if err := st1.Close(); err != nil {
			t.Fatal(err)
		}
		recs, err := filepath.Glob(filepath.Join(dir, "*.rec"))
		if err != nil || len(recs) == 0 {
			t.Fatalf("%s: no record files written (err %v)", name, err)
		}
		for _, path := range recs {
			mutate(t, path)
		}

		st2 := openDisk(t, dir)
		defer st2.Close()
		s2 := core.NewSession(core.BuildOptions{Store: st2})
		a2, err := s2.Update(gen.Units)
		if err != nil {
			t.Fatal(err)
		}
		stats := s2.ArtifactStats()
		total := stats.Hits + stats.Misses + stats.Invalidated
		if stats.Misses+stats.Invalidated == 0 {
			t.Fatalf("%s: corruption rebuilt nothing (%+v) — was it detected?", name, stats)
		}
		if stats.StoreHits+stats.Misses+stats.Invalidated < total {
			t.Fatalf("%s: inconsistent stats %+v", name, stats)
		}
		got := reportsJSON(t, normalizeResults(a2.CheckAll(specs, dopts)).Reports)
		if !bytes.Equal(got, coldB) {
			t.Fatalf("%s: corrupted store produced different reports\ngot: %s\nwant: %s", name, got, coldB)
		}
	}

	corrupt(t, "truncated-tail", func(t *testing.T, path string) {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()*2/3); err != nil {
			t.Fatal(err)
		}
	})
	corrupt(t, "bit-flip", func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x20
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSessionStoreUnitBitFlip flips one bit in one unit's record file.
// The damage stays inside that unit: its functions rebuild, every other
// function loads from the store, and the reports equal a cold build's.
func TestSessionStoreUnitBitFlip(t *testing.T) {
	gen := workload.Generate(workload.Subjects[2], workload.GenOptions{Scale: 280, Taint: true})
	counts := unitFuncCounts(t, gen.Units)
	if len(counts) < 3 {
		t.Fatalf("workload has %d units; want at least 3", len(counts))
	}
	const victim = 1
	specs := checkers.All()
	dopts := detect.Options{Workers: 1}
	coldA, err := core.NewSession(core.BuildOptions{}).Update(gen.Units)
	if err != nil {
		t.Fatal(err)
	}
	coldB := reportsJSON(t, normalizeResults(coldA.CheckAll(specs, dopts)).Reports)

	dir := t.TempDir()
	st1 := openDisk(t, dir)
	if _, err := core.NewSession(core.BuildOptions{Store: st1}).Update(gen.Units); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	path := recordPath(dir, store.NSArtifact, unitKey(victim))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x04
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}

	st2 := openDisk(t, dir)
	defer st2.Close()
	s2 := core.NewSession(core.BuildOptions{Store: st2})
	a2, err := s2.Update(gen.Units)
	if err != nil {
		t.Fatal(err)
	}
	stats := s2.ArtifactStats()
	total := a2.Sizes.Functions
	if stats.StoreHits != total-counts[victim] || stats.Misses != counts[victim] || stats.Invalidated != 0 {
		t.Fatalf("stats %+v: want %d store hits and %d misses (unit %d's functions)",
			stats, total-counts[victim], counts[victim], victim)
	}
	if ss := st2.Stat(); ss.CorruptRecords != 1 {
		t.Fatalf("store stats %+v: want exactly the flipped record rejected", ss)
	}
	got := reportsJSON(t, normalizeResults(a2.CheckAll(specs, dopts)).Reports)
	if !bytes.Equal(got, coldB) {
		t.Fatalf("reports differ from cold\ngot: %s\nwant: %s", got, coldB)
	}
}

// TestSessionStoreRestartChain makes a chain of single-function edits,
// each on a freshly reopened store — more commits than any fixed set of
// record slots holds. Every restart must load the unedited functions,
// report exactly what a cold build of the edited program reports, and
// write only the edited unit's record.
func TestSessionStoreRestartChain(t *testing.T) {
	const edits = 21
	gen := workload.Generate(workload.Subjects[2], workload.GenOptions{Scale: 280, Taint: true})
	n := len(gen.Units)
	if n < 3 {
		t.Fatalf("workload has %d units; want at least 3", n)
	}
	specs := checkers.All()
	dopts := detect.Options{Workers: 1}
	dir := t.TempDir()
	units := append(gen.Units[:0:0], gen.Units...)

	st := openDisk(t, dir)
	if _, err := core.NewSession(core.BuildOptions{Store: st}).Update(units); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < edits; e++ {
		u := e % n
		units[u] = editUnit(t, units[u])

		st := openDisk(t, dir)
		log := &putLog{Store: st}
		s := core.NewSession(core.BuildOptions{Store: log})
		a, err := s.Update(units)
		if err != nil {
			t.Fatal(err)
		}
		stats := s.ArtifactStats()
		if stats.StoreHits != a.Sizes.Functions || stats.Misses == 0 || stats.Invalidated != 0 {
			t.Fatalf("edit %d (unit %d): stats %+v, want every function loaded and the edit's frontier rebuilt", e, u, stats)
		}
		if want := []string{unitKey(u)}; !slices.Equal(log.keys, want) {
			t.Fatalf("edit %d: put %v, want %v", e, log.keys, want)
		}
		got := reportsJSON(t, normalizeResults(a.CheckAll(specs, dopts)).Reports)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		coldA, err := core.NewSession(core.BuildOptions{}).Update(units)
		if err != nil {
			t.Fatal(err)
		}
		if want := reportsJSON(t, normalizeResults(coldA.CheckAll(specs, dopts)).Reports); !bytes.Equal(got, want) {
			t.Fatalf("edit %d: reports differ from cold\ngot: %s\nwant: %s", e, got, want)
		}
	}
}

// TestSessionStoreMovedFunction moves a function to the end of another
// unit between two processes. The old unit's record still holds the moved
// function's old artifact, but a record only supplies the functions the
// current parse puts in its unit: the moved function is a miss, only its
// new unit's record is rewritten, and the next restart loads everything.
func TestSessionStoreMovedFunction(t *testing.T) {
	const g = `void g(bool c) { int *s = malloc(); if (c) { free(s); } log_value(*s); }`
	before := []minic.NamedSource{
		{Name: "a.mc", Src: "void f(bool c) { g(c); h(c); }\n" + g},
		{Name: "b.mc", Src: `void h(bool c) { int *t = malloc(); if (c) { free(t); } }`},
	}
	after := []minic.NamedSource{
		{Name: "a.mc", Src: "void f(bool c) { g(c); h(c); }"},
		{Name: "b.mc", Src: before[1].Src + "\n" + g},
	}
	coldA, err := core.NewSession(core.BuildOptions{}).Update(after)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st := openDisk(t, dir)
	if _, err := core.NewSession(core.BuildOptions{Store: st}).Update(before); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for round, want := range []struct {
		storeHits int
		puts      []string
	}{
		{2, []string{unitKey(1)}},
		{3, nil},
	} {
		st := openDisk(t, dir)
		log := &putLog{Store: st}
		s := core.NewSession(core.BuildOptions{Store: log})
		a, err := s.Update(after)
		if err != nil {
			t.Fatal(err)
		}
		if stats := s.ArtifactStats(); stats.StoreHits != want.storeHits || stats.Misses != 3-want.storeHits {
			t.Fatalf("round %d: stats %+v, want %d store hits", round, stats, want.storeHits)
		}
		if !slices.Equal(log.keys, want.puts) {
			t.Fatalf("round %d: put %v, want %v", round, log.keys, want.puts)
		}
		checkEquivalent(t, fmt.Sprintf("round %d", round), a, coldA, 1)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// guardedChainUnits is firewallUnits with branches: top frees a pointer
// under c and hands it to mid, so the use-after-free search conjoins
// conditions inside top and grows its condition builder after the build.
func guardedChainUnits(wSrc string) []minic.NamedSource {
	return []minic.NamedSource{
		{Name: "a.mc", Src: `int gg;
void top(int *p, bool c, bool d) { int *q = malloc(); if (c) { free(q); } if (d) { mid(q, c); } mid(p, d); }`},
		{Name: "b.mc", Src: `void mid(int *p, bool c) { if (!c) { w(p); } else { w(p); } }`},
		{Name: "c.mc", Src: wSrc},
	}
}

// TestSessionStoreRestartAfterFirewall restarts on a store whose records
// were re-persisted after detection ran: a summary-only edit of w refreshes
// the retained callers mid and top through the firewall, and commit
// re-persists them after CheckAll has grown their condition builders in
// place (on the guarded chain; the plain firewall chain has no branches to
// grow). The restart must load all three functions and match a cold build
// in reports, stats, Sizes (including CondNodes) and PTAStats.
func TestSessionStoreRestartAfterFirewall(t *testing.T) {
	specs := checkers.All()
	dopts := detect.Options{Workers: 1}
	for _, tc := range []struct {
		name  string
		units func(wSrc string) []minic.NamedSource
		grows bool
	}{
		{"firewall", firewallUnits, false},
		{"guarded", guardedChainUnits, true},
	} {
		edited := tc.units(`void w(int *p) { int t = *p; *p = t + 1; }`)
		dir := t.TempDir()

		st1 := openDisk(t, dir)
		s1 := core.NewSession(core.BuildOptions{Store: st1})
		a1, err := s1.Update(tc.units(`void w(int *p) { *p = 1; }`))
		if err != nil {
			t.Fatal(err)
		}
		a1.CheckAll(specs, dopts)
		grown := -a1.Sizes.CondNodes
		for _, inf := range a1.Infos {
			grown += inf.Conds.NumNodes()
		}
		if tc.grows != (grown > 0) {
			t.Fatalf("%s: detection grew %d cond nodes", tc.name, grown)
		}
		a1, err = s1.Update(edited)
		if err != nil {
			t.Fatal(err)
		}
		if st := s1.ArtifactStats(); st.Invalidated != 1 || st.Hits != 2 {
			t.Fatalf("%s: firewall stats = %+v (want 1 invalidated, 2 hits)", tc.name, st)
		}
		a1.CheckAll(specs, dopts)
		if err := st1.Close(); err != nil {
			t.Fatal(err)
		}

		st2 := openDisk(t, dir)
		s2 := core.NewSession(core.BuildOptions{Store: st2})
		a2, err := s2.Update(edited)
		if err != nil {
			t.Fatal(err)
		}
		if st := s2.ArtifactStats(); st.StoreHits != 3 || st.Hits != 3 {
			t.Fatalf("%s: restart stats = %+v (want 3 store hits)", tc.name, st)
		}
		coldA, err := core.NewSession(core.BuildOptions{}).Update(edited)
		if err != nil {
			t.Fatal(err)
		}
		checkEquivalent(t, tc.name, a2, coldA, 1)
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// unitRecords returns the artifact records a session writes for units,
// one per unit, read back from a scratch store.
func unitRecords(t *testing.T, units []minic.NamedSource) [][]byte {
	t.Helper()
	st := openDisk(t, t.TempDir())
	defer st.Close()
	if _, err := core.NewSession(core.BuildOptions{Store: st}).Update(units); err != nil {
		t.Fatal(err)
	}
	recs := make([][]byte, len(units))
	for i := range units {
		data, ok, err := st.Get(store.NSArtifact, unitKey(i))
		if err != nil || !ok {
			t.Fatalf("unit %d record: ok=%v err=%v", i, ok, err)
		}
		recs[i] = data
	}
	return recs
}

// ringSegment re-frames unit records as one segment of the layout earlier
// versions wrote under "!full" and "!delta-NN": magic "ppsg", codec
// version 4, the program-shape fingerprint, a sequence number, the entry
// count, then the entries, which that version encoded as this one does.
func ringSegment(t *testing.T, seq int64, recs ...[]byte) []byte {
	t.Helper()
	var fp string
	var count int
	var entries []byte
	for _, rec := range recs {
		r := wirebin.NewReader(rec[4:])
		if string(rec[:4]) != "ppsg" || r.Int() != 5 {
			t.Fatalf("record prefix %q: want ppsg, codec version 5", rec[:5])
		}
		fp = r.Str()
		count += r.Int()
		entries = append(entries, rec[len(rec)-r.Rest():]...)
	}
	w := &wirebin.Writer{B: []byte("ppsg")}
	w.Int(4)
	w.Str(fp)
	w.Varint(seq)
	w.Int(count)
	return append(w.B, entries...)
}

// TestSessionStoreOldCodecVersion restarts on stores written in earlier
// layouts: unit records whose codec version field reads 4, and a segment
// ring — a "!full" and a "!delta-00" record — as versions before unit
// records wrote it. Either is one clean miss: the first restart rebuilds
// every function with reports identical to a cold build and writes the
// unit records, and the next restart loads everything. The ring's files
// are never read and stay untouched.
func TestSessionStoreOldCodecVersion(t *testing.T) {
	gen := workload.Generate(workload.Subjects[2], workload.GenOptions{Scale: 140, Taint: true})
	specs := checkers.All()
	dopts := detect.Options{Workers: 1}
	coldA, err := core.NewSession(core.BuildOptions{}).Update(gen.Units)
	if err != nil {
		t.Fatal(err)
	}
	coldB := reportsJSON(t, normalizeResults(coldA.CheckAll(specs, dopts)).Reports)
	recs := unitRecords(t, gen.Units)
	// "ppsg" is followed by the version as a zig-zag varint (5 → 10, 4 → 8).
	v4 := make(map[string][]byte)
	for i, rec := range recs {
		v4[unitKey(i)] = append([]byte{}, rec...)
		v4[unitKey(i)][4] = 8
	}

	for _, tc := range []struct {
		name string
		puts map[string][]byte // records the earlier version left
		kept []string          // keys whose files must stay untouched
	}{
		{"codec-v4", v4, nil},
		{"segment-ring", map[string][]byte{
			"!full":     ringSegment(t, 0, recs...),
			"!delta-00": ringSegment(t, 1, recs[0]),
		}, []string{"!full", "!delta-00"}},
	} {
		dir := t.TempDir()
		st := openDisk(t, dir)
		for key, val := range tc.puts {
			if err := st.Put(store.NSArtifact, key, val); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		kept := make(map[string][]byte)
		for _, key := range tc.kept {
			if kept[key], err = os.ReadFile(recordPath(dir, store.NSArtifact, key)); err != nil {
				t.Fatal(err)
			}
		}

		for round, wantHits := range []bool{false, true} {
			st := openDisk(t, dir)
			s := core.NewSession(core.BuildOptions{Store: st})
			a, err := s.Update(gen.Units)
			if err != nil {
				t.Fatal(err)
			}
			stats := s.ArtifactStats()
			if wantHits && (stats.StoreHits != a.Sizes.Functions || stats.Misses != 0) {
				t.Fatalf("%s round %d: stats %+v, want every function store-loaded", tc.name, round, stats)
			}
			if !wantHits && (stats.StoreHits != 0 || stats.Misses != a.Sizes.Functions) {
				t.Fatalf("%s round %d: stats %+v, want every function rebuilt", tc.name, round, stats)
			}
			got := reportsJSON(t, normalizeResults(a.CheckAll(specs, dopts)).Reports)
			if !bytes.Equal(got, coldB) {
				t.Fatalf("%s round %d: reports differ from cold\ngot: %s\nwant: %s", tc.name, round, got, coldB)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			for key, want := range kept {
				if got, err := os.ReadFile(recordPath(dir, store.NSArtifact, key)); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s round %d: the earlier version's %s record was touched (err %v)", tc.name, round, key, err)
				}
			}
		}
	}
}

// writeParentLog writes a store.log in the layout earlier versions used
// (one append-only log of every record: an 8-byte header, then per record
// u32 nsLen | u32 keyLen | u32 valLen | ns | key | val | u32 crc32).
func writeParentLog(t *testing.T, dir string, recs map[string][]byte) {
	t.Helper()
	log := []byte("PPSTOR\x00\x01")
	for key, val := range recs {
		payload := append(append([]byte(store.NSArtifact), key...), val...)
		log = binary.LittleEndian.AppendUint32(log, uint32(len(store.NSArtifact)))
		log = binary.LittleEndian.AppendUint32(log, uint32(len(key)))
		log = binary.LittleEndian.AppendUint32(log, uint32(len(val)))
		log = append(log, payload...)
		log = binary.LittleEndian.AppendUint32(log, crc32.ChecksumIEEE(payload))
	}
	if err := os.WriteFile(filepath.Join(dir, "store.log"), log, 0o666); err != nil {
		t.Fatal(err)
	}
}

// TestSessionStoreParentLog restarts on a directory that holds only a
// store.log written by an earlier version, holding current-version unit
// records. The log is ignored and left in place: the first restart
// rebuilds every function with reports identical to a cold build, and the
// next restart loads everything from record files.
func TestSessionStoreParentLog(t *testing.T) {
	gen := workload.Generate(workload.Subjects[2], workload.GenOptions{Scale: 40, Taint: true})
	specs := checkers.All()
	dopts := detect.Options{Workers: 1}
	coldA, err := core.NewSession(core.BuildOptions{}).Update(gen.Units)
	if err != nil {
		t.Fatal(err)
	}
	coldB := reportsJSON(t, normalizeResults(coldA.CheckAll(specs, dopts)).Reports)

	// Capture the records a current session writes, in the parent layout.
	logged := make(map[string][]byte)
	for i, rec := range unitRecords(t, gen.Units) {
		logged[unitKey(i)] = rec
	}
	dir := t.TempDir()
	writeParentLog(t, dir, logged)

	for round, wantHits := range []bool{false, true} {
		st := openDisk(t, dir)
		s := core.NewSession(core.BuildOptions{Store: st})
		a, err := s.Update(gen.Units)
		if err != nil {
			t.Fatal(err)
		}
		stats := s.ArtifactStats()
		if wantHits && (stats.StoreHits != a.Sizes.Functions || stats.Misses != 0) {
			t.Fatalf("round %d: stats %+v, want every function store-loaded", round, stats)
		}
		if !wantHits && (stats.StoreHits != 0 || stats.Misses != a.Sizes.Functions) {
			t.Fatalf("round %d: stats %+v, want every function rebuilt", round, stats)
		}
		got := reportsJSON(t, normalizeResults(a.CheckAll(specs, dopts)).Reports)
		if !bytes.Equal(got, coldB) {
			t.Fatalf("round %d: reports differ from cold\ngot: %s\nwant: %s", round, got, coldB)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, "store.log")); err != nil {
			t.Fatalf("round %d: the earlier version's log was touched: %v", round, err)
		}
	}
}
