package core_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/minic"
	"repro/internal/store"
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

// TestSessionStoreOldCodecVersion restarts on a store whose full segment
// carries codec version 3, the layout that still persisted the points-to
// result and the SEG. The stale segment is one clean miss: the first
// restart rebuilds every function with reports identical to a cold build
// and rewrites the segment, and the next restart loads everything.
func TestSessionStoreOldCodecVersion(t *testing.T) {
	gen := workload.Generate(workload.Subjects[2], workload.GenOptions{Scale: 40, Taint: true})
	specs := checkers.All()
	dopts := detect.Options{Workers: 1}
	coldA, err := core.NewSession(core.BuildOptions{}).Update(gen.Units)
	if err != nil {
		t.Fatal(err)
	}
	coldB := reportsJSON(t, normalizeResults(coldA.CheckAll(specs, dopts)).Reports)
	dir := t.TempDir()

	// Populate the store, then rewrite the full segment's version field:
	// "ppsg" is followed by the version as a zig-zag varint (4 → 8, 3 → 6).
	st := openDisk(t, dir)
	if _, err := core.NewSession(core.BuildOptions{Store: st}).Update(gen.Units); err != nil {
		t.Fatal(err)
	}
	data, ok, err := st.Get(store.NSArtifact, "!full")
	if err != nil || !ok || len(data) < 5 || string(data[:5]) != "ppsg\x08" {
		t.Fatalf("full segment: ok=%v err=%v prefix %q", ok, err, data[:min(len(data), 5)])
	}
	old := append([]byte(nil), data...)
	old[4] = 6
	if err := st.Put(store.NSArtifact, "!full", old); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	for round, wantHits := range []bool{false, true} {
		st := openDisk(t, dir)
		s := core.NewSession(core.BuildOptions{Store: st})
		a, err := s.Update(gen.Units)
		if err != nil {
			t.Fatal(err)
		}
		stats := s.ArtifactStats()
		if wantHits && (stats.StoreHits != stats.Hits || stats.Misses != 0) {
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
// store.log written by an earlier version, holding current-version
// segments. The log is ignored and left in place: the first restart
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

	// Capture the segments a current session writes, in the parent layout.
	scratch := t.TempDir()
	st := openDisk(t, scratch)
	if _, err := core.NewSession(core.BuildOptions{Store: st}).Update(gen.Units); err != nil {
		t.Fatal(err)
	}
	full, ok, err := st.Get(store.NSArtifact, "!full")
	if err != nil || !ok {
		t.Fatalf("full segment: ok=%v err=%v", ok, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeParentLog(t, dir, map[string][]byte{"!full": full})

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
