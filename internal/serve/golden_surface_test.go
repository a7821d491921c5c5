package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gsgcn/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_surface.txt from the current code")

// TestGoldenUnshardedSurface pins the exact bytes an unsharded model
// serves behind a Registry — health and listing bodies, the shard
// routes' 404s, query error bodies, a few answers — plus the /metrics
// series keys and the access-log key sets, before and after its first
// load, next to a 2-shard model after load. The transcript is compared
// against testdata/golden_surface.txt; regenerate it with
// go test -run TestGoldenUnshardedSurface -update-golden only when a
// surface change is intended.
func TestGoldenUnshardedSurface(t *testing.T) {
	ds := testDataset(t, false)
	dir := t.TempDir()
	ckpt := trainAndSave(t, ds, 1, dir)

	var logBuf bytes.Buffer
	reg := NewRegistry()
	defer reg.Close()
	reg.SetAccessLog(obs.NewLogger(&logBuf))
	flat, err := reg.Add("flat", ds, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	do := func(method, target, body string) {
		t.Helper()
		logBuf.Reset()
		var req *http.Request
		if body == "" {
			req = httptest.NewRequest(method, target, nil)
		} else {
			req = httptest.NewRequest(method, target, strings.NewReader(body))
		}
		rec := httptest.NewRecorder()
		reg.ServeHTTP(rec, req)
		resp := strings.ReplaceAll(rec.Body.String(), dir, "$DIR")
		fmt.Fprintf(&out, "%s %s %s\n%d %s\n%s", method, target, body, rec.Code, rec.Header().Get("Content-Type"), resp)
		for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
			var fields map[string]json.RawMessage
			if err := json.Unmarshal([]byte(line), &fields); err != nil {
				t.Fatalf("access log line %q: %v", line, err)
			}
			keys := make([]string, 0, len(fields))
			for k := range fields {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Fprintf(&out, "log keys: %s\n", strings.Join(keys, ","))
		}
		out.WriteString("\n")
	}
	seriesKeys := func(target string) {
		t.Helper()
		rec := httptest.NewRecorder()
		reg.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		var keys []string
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			keys = append(keys, line[:strings.LastIndexByte(line, ' ')])
		}
		sort.Strings(keys)
		fmt.Fprintf(&out, "series of %s (%d):\n%s\n\n", target, len(keys), strings.Join(keys, "\n"))
	}
	errorSweep := func(prefix string) {
		t.Helper()
		for _, target := range []string{
			"/embed", "/embed?ids=", "/embed?ids=99999", "/embed?ids=0,-1", "/embed?ids=%2B3",
			"/predict", "/predict?ids=99999",
			"/topk", "/topk?id=99999", "/topk?id=0&k=0", "/topk?id=0&k=abc", "/topk?id=0&k=99999",
			"/topk?id=0&mode=fuzzy", "/topk?id=0&ef=0", "/topk?id=0&ef=5", "/topk?id=0&mode=exact&ef=5",
			"/topk?id=0&mode=fuzzy&ef=x",
		} {
			do("GET", prefix+target, "")
		}
		do("POST", prefix+"/embed", `{"ids":[]}`)
		do("POST", prefix+"/predict", `{"ids":[99999]}`)
		do("DELETE", prefix+"/embed?ids=0", "")
		do("POST", prefix+"/topk?id=0", "")
	}
	surface := func() {
		t.Helper()
		for _, target := range []string{"/healthz", "/v1/healthz", "/models", "/models/flat", "/v1/models/flat/healthz"} {
			do("GET", target, "")
		}
		do("GET", "/shards", "")
		do("POST", "/shards/0/stop", "")
		do("GET", "/v1/shards", "")
		do("GET", "/models/flat/shards", "")
		do("POST", "/models/flat/shards/0/stop", "")
	}

	out.WriteString("== unsharded, before load ==\n\n")
	surface()
	errorSweep("")
	errorSweep("/models/flat")
	seriesKeys("/metrics")
	seriesKeys("/models/flat/metrics")

	if _, err := flat.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	sharded, err := reg.AddSharded("sharded", ds, Options{Workers: 2}, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sharded.Load(ckpt); err != nil {
		t.Fatal(err)
	}

	out.WriteString("== unsharded and 2-shard, after load ==\n\n")
	surface()
	errorSweep("")
	errorSweep("/models/sharded")
	for _, prefix := range []string{"", "/models/sharded"} {
		do("GET", prefix+"/embed?ids=0,7", "")
		do("POST", prefix+"/predict", `{"ids":[3,4]}`)
		do("GET", prefix+"/topk?id=5&k=4", "")
		do("GET", prefix+"/topk?id=5&k=4&mode=exact", "")
	}
	do("GET", "/models/sharded", "")
	do("GET", "/models/sharded/shards", "")
	do("GET", "/models/sharded/healthz", "")
	for _, target := range []string{"/healthz", "/models", "/models/flat"} {
		do("GET", target, "")
	}
	seriesKeys("/metrics")
	seriesKeys("/models/flat/metrics")
	seriesKeys("/models/sharded/metrics")

	golden := filepath.Join("testdata", "golden_surface.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("surface differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
			}
		}
	}
}
