package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"gsgcn/internal/core"
	"gsgcn/internal/datasets"
)

// doReq issues one request and returns status, the decoded error body
// (if any), and whether the response was well-formed JSON.
func doReq(tb testing.TB, method, url string, body string) (int, string, bool) {
	tb.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	var eb errorBody
	if json.Unmarshal(raw, &eb) != nil {
		return resp.StatusCode, string(raw), false
	}
	return resp.StatusCode, eb.Error, true
}

// TestServerErrorPaths sweeps every malformed-request class through
// the live handlers: each must come back as a clean 4xx/5xx with a
// JSON error body — no panics, no empty bodies, no 200s.
func TestServerErrorPaths(t *testing.T) {
	ds := testDataset(t, false) // 300 vertices
	dir := t.TempDir()
	ckpt := trainAndSave(t, ds, 1, dir)
	srv := NewServer(ds, Options{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if _, err := srv.Load(ckpt); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, method, path, body string
		wantStatus               int
	}{
		{"embed-malformed-json", "POST", "/embed", `{"ids": [1, 2`, http.StatusBadRequest},
		{"embed-wrong-json-shape", "POST", "/embed", `{"ids": "zero"}`, http.StatusBadRequest},
		{"embed-unknown-id", "GET", "/embed?ids=300", "", http.StatusBadRequest},
		{"embed-negative-id", "GET", "/embed?ids=-1", "", http.StatusBadRequest},
		{"embed-garbage-id", "GET", "/embed?ids=one,two", "", http.StatusBadRequest},
		{"embed-empty-ids", "POST", "/embed", `{"ids": []}`, http.StatusBadRequest},
		{"embed-wrong-method", "PUT", "/embed?ids=0", "", http.StatusMethodNotAllowed},
		{"predict-malformed-json", "POST", "/predict", `ids=1`, http.StatusBadRequest},
		{"predict-unknown-id", "GET", "/predict?ids=9999", "", http.StatusBadRequest},
		{"predict-wrong-method", "DELETE", "/predict?ids=0", "", http.StatusMethodNotAllowed},
		{"topk-missing-id", "GET", "/topk", "", http.StatusBadRequest},
		{"topk-unknown-id", "GET", "/topk?id=300&k=3", "", http.StatusBadRequest},
		{"topk-k-zero", "GET", "/topk?id=0&k=0", "", http.StatusBadRequest},
		{"topk-k-negative", "GET", "/topk?id=0&k=-4", "", http.StatusBadRequest},
		{"topk-k-over-v", "GET", "/topk?id=0&k=300", "", http.StatusBadRequest},
		{"topk-bad-k", "GET", "/topk?id=0&k=ten", "", http.StatusBadRequest},
		{"topk-bad-mode", "GET", "/topk?id=0&k=3&mode=fuzzy", "", http.StatusBadRequest},
		{"topk-bad-ef", "GET", "/topk?id=0&k=3&mode=ann&ef=zero", "", http.StatusBadRequest},
		{"topk-ef-nonpositive", "GET", "/topk?id=0&k=3&mode=ann&ef=0", "", http.StatusBadRequest},
		{"topk-ef-without-ann", "GET", "/topk?id=0&k=3&mode=exact&ef=32", "", http.StatusBadRequest},
		{"topk-wrong-method", "POST", "/topk?id=0&k=3", "", http.StatusMethodNotAllowed},
		{"reload-wrong-method", "GET", "/reload", "", http.StatusMethodNotAllowed},
		{"reload-malformed-json", "POST", "/reload", `{"path": 3`, http.StatusBadRequest},
		{"reload-missing-file", "POST", "/reload", `{"path": "/nonexistent/m.ckpt"}`, http.StatusInternalServerError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, msg, isJSON := doReq(t, tc.method, ts.URL+tc.path, tc.body)
			if status != tc.wantStatus {
				t.Errorf("status = %d, want %d (body %q)", status, tc.wantStatus, msg)
			}
			if !isJSON {
				t.Errorf("response body is not JSON: %q", msg)
			}
			if msg == "" {
				t.Error("error body carries no message")
			}
		})
	}

	// The sweep must not have wedged the server.
	if code := getJSON(t, ts.URL+"/embed?ids=0", nil); code != 200 {
		t.Fatalf("healthy request after error sweep = %d", code)
	}
}

// TestTopKDefaultKClampedToTinyGraph pins the default-k contract on
// graphs smaller than the server's k=10 default: a request that sends
// no k must be answered with |V|-1 neighbors, while an explicit
// out-of-range k stays an error.
func TestTopKDefaultKClampedToTinyGraph(t *testing.T) {
	ds := datasets.Generate(datasets.Config{
		Name: "tiny", Vertices: 8, TargetEdges: 20,
		FeatureDim: 4, NumClasses: 2, Seed: 3,
	})
	srv := NewServer(ds, Options{Workers: 1, MaxBatch: 1})
	m := core.NewModel(ds, core.Config{Layers: 2, Hidden: 4, Workers: 1, Seed: 17})
	if _, err := srv.Engine().Install(m); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var res TopKResult
	if code := getJSON(t, ts.URL+"/topk?id=0", &res); code != 200 {
		t.Fatalf("default-k on 8-vertex graph = %d", code)
	}
	if len(res.Neighbors) != 7 || res.K != 7 {
		t.Fatalf("default-k answer = k=%d with %d neighbors, want 7", res.K, len(res.Neighbors))
	}
	if status, _, _ := doReq(t, "GET", ts.URL+"/topk?id=0&k=10", ""); status != http.StatusBadRequest {
		t.Fatalf("explicit k=10 on 8-vertex graph = %d, want 400", status)
	}
}

// TestReloadDuringQueries exercises the reload error path under
// concurrent load: queries hammer /topk (both modes) while reloads —
// half of them failing on a missing file — swap snapshots. Every
// query must answer 200 and every bad reload a clean 500, with the
// server fully live afterwards.
func TestReloadDuringQueries(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckpts := []string{trainAndSave(t, ds, 1, dir), trainAndSave(t, ds, 2, dir)}
	srv := NewServer(ds, Options{Workers: 2, ANNEf: 16})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if _, err := srv.Load(ckpts[0]); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 32)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				mode := ModeExact
				if g%2 == 1 {
					mode = ModeANN
				}
				url := fmt.Sprintf("%s/topk?id=%d&k=3&mode=%s", ts.URL, i%300, mode)
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("query during reload: %d %s", resp.StatusCode, body)
					return
				}
			}
		}(g)
	}

	for i := 0; i < 4; i++ {
		// Good reload, then a failing one against a missing path.
		if _, err := srv.Load(ckpts[i%2]); err != nil {
			t.Fatal(err)
		}
		status, msg, isJSON := doReq(t, "POST", ts.URL+"/reload", `{"path": "/nope.ckpt"}`)
		if status != http.StatusInternalServerError || !isJSON || msg == "" {
			t.Fatalf("bad reload = %d %q (json %v)", status, msg, isJSON)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var health healthBody
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 || health.Status != "ok" {
		t.Fatalf("post-test health = %d %+v", code, health)
	}
	// A failed reload must not have disturbed the serving snapshot.
	if health.Version != 5 {
		t.Errorf("version after 1 load + 4 reloads = %d, want 5", health.Version)
	}
}
