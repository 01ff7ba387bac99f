package pinpoint_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/checkers"
	"repro/internal/detect"
	"repro/internal/pinpoint"
	"repro/internal/workload"
)

func reportsJSON(t *testing.T, rs []detect.Report) []byte {
	t.Helper()
	js := make([]detect.JSONReport, len(rs))
	for i, r := range rs {
		js[i] = r.ToJSON()
	}
	b, err := json.Marshal(js)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestConfigRoundTrip drives the whole warm-restart story through the
// unified front door: the same Config the CLI and server build, opened
// twice against one store directory.
func TestConfigRoundTrip(t *testing.T) {
	gen := workload.Generate(workload.Subjects[1], workload.GenOptions{Scale: 40, Taint: true})
	dir := t.TempDir()
	cfg := pinpoint.Config{Workers: 1, StoreDir: dir}

	run := func() ([]byte, int, int) {
		rt, err := pinpoint.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		if rt.Store() == nil {
			t.Fatal("Open did not open the store")
		}
		sess := rt.NewSession()
		a, err := sess.Update(gen.Units)
		if err != nil {
			t.Fatal(err)
		}
		res := a.CheckAll(checkers.All(), rt.DetectOptions())
		return reportsJSON(t, res.Reports), a.Artifacts.StoreHits, a.Artifacts.Misses
	}

	cold, coldStoreHits, coldMisses := run()
	if coldStoreHits != 0 || coldMisses == 0 {
		t.Fatalf("cold run: storeHits=%d misses=%d", coldStoreHits, coldMisses)
	}
	warm, warmStoreHits, warmMisses := run()
	if warmStoreHits == 0 || warmMisses != 0 {
		t.Fatalf("warm run: storeHits=%d misses=%d", warmStoreHits, warmMisses)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm restart through Config changed reports:\n%s\n%s", warm, cold)
	}

	// A memory-only Config acquires nothing and stays non-persistent.
	rt, err := pinpoint.Open(pinpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Store() != nil {
		t.Fatal("zero Config opened a store")
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}
