package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/store"
)

// TestV1Aliases pins the route table: every route answers under /v1/, and
// every retired spelling (the unversioned aliases, /v1/healthz, /v1/readyz
// and the pre-tenant /debug/session) is gone.
func TestV1Aliases(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	units := unitsToJSON(exampleUnits(t))
	body, err := json.Marshal(AnalyzeRequest{Units: units})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{"POST", "/v1/analyze", http.StatusOK},
		{"GET", "/v1/health", http.StatusOK},
		{"GET", "/v1/ready", http.StatusOK},
		{"GET", "/v1/metrics", http.StatusOK},
		{"GET", "/v1/debug/tenants", http.StatusOK},
		{"GET", "/v1/debug/inflight", http.StatusOK},
		{"GET", "/v1/debug/store", http.StatusOK},
		{"GET", "/v1/debug/timeseries", http.StatusOK},
		{"GET", "/v1/debug/costs", http.StatusOK},
		{"GET", "/v1/debug/slo", http.StatusOK},

		{"POST", "/analyze", http.StatusNotFound},
		{"GET", "/healthz", http.StatusNotFound},
		{"GET", "/readyz", http.StatusNotFound},
		{"GET", "/metrics", http.StatusNotFound},
		{"GET", "/v1/healthz", http.StatusNotFound},
		{"GET", "/v1/readyz", http.StatusNotFound},
		{"GET", "/debug/session", http.StatusNotFound},
		{"GET", "/v1/debug/session", http.StatusNotFound},
		{"GET", "/debug/tenants", http.StatusNotFound},
		{"GET", "/debug/inflight", http.StatusNotFound},
		{"GET", "/debug/store", http.StatusNotFound},
		{"GET", "/debug/timeseries", http.StatusNotFound},
		{"GET", "/debug/costs", http.StatusNotFound},
		{"GET", "/debug/slo", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: %s, want %d", tc.method, tc.path, resp.Status, tc.want)
		}
	}
}

// TestServeStoreWarmRestart drives the persistent store through the HTTP
// surface: a second server process on the same store directory answers its
// first request from warm-loaded artifacts, with identical reports, and
// /v1/debug/store reports the store's occupancy.
func TestServeStoreWarmRestart(t *testing.T) {
	units := unitsToJSON(exampleUnits(t))
	dir := t.TempDir()

	st1, err := store.Open(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Config{Store: st1})
	first, _ := postAnalyze(t, ts1.URL, AnalyzeRequest{Units: units})
	if first.Stats.ArtifactStoreHits != 0 {
		t.Fatalf("cold server store-loaded %d artifacts; want 0", first.Stats.ArtifactStoreHits)
	}
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	_, ts2 := newTestServer(t, Config{Store: st2})
	second, _ := postAnalyze(t, ts2.URL, AnalyzeRequest{Units: units})

	if second.Stats.ArtifactStoreHits == 0 || second.Stats.ArtifactMisses != 0 {
		t.Fatalf("restarted server did not warm-load: %+v", second.Stats)
	}
	fb, _ := json.Marshal(first.Reports)
	sb, _ := json.Marshal(second.Reports)
	if string(fb) != string(sb) {
		t.Fatalf("restarted server reports differ:\n%s\n%s", sb, fb)
	}

	resp, err := http.Get(ts2.URL + "/v1/debug/store")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d storeDebug
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if !d.Persistent {
		t.Fatal("/v1/debug/store reports no persistent store")
	}
	if d.Stats.Records == 0 || d.Stats.DiskBytes == 0 {
		t.Fatalf("/v1/debug/store reports an empty store: %+v", d.Stats)
	}
	if d.ArtifactStoreHits != second.Stats.ArtifactStoreHits {
		t.Fatalf("debug store hits %d != response stats %d", d.ArtifactStoreHits, second.Stats.ArtifactStoreHits)
	}
}
