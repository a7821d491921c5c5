package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// floodBody is an n-byte JSON body produced on the fly, `{"ids":[1,1,…`,
// so the test itself holds none of it; read counts the bytes consumed.
type floodBody struct{ n, read int64 }

func (f *floodBody) Read(p []byte) (int, error) {
	const head = `{"ids":[`
	i := 0
	for ; i < len(p) && f.read < f.n; i, f.read = i+1, f.read+1 {
		switch {
		case f.read < int64(len(head)):
			p[i] = head[f.read]
		case (f.read-int64(len(head)))%2 == 0:
			p[i] = '1'
		default:
			p[i] = ','
		}
	}
	if i == 0 {
		return 0, io.EOF
	}
	return i, nil
}

// floodHeapBound is the most a handler may allocate while rejecting a
// 100 MB body. The decoder's buffer and the ids decoded from the first
// maxIDsBody bytes come to about 1 MB.
const floodHeapBound = 4 << 20

// serveFlood POSTs a 100 MB body to path and returns the status, the
// error envelope, the body bytes the handler read and the heap it
// allocated meanwhile.
func serveFlood(t *testing.T, h http.Handler, path string) (status int, errMsg string, read, alloc uint64) {
	t.Helper()
	body := &floodBody{n: 100 << 20}
	req := httptest.NewRequest(http.MethodPost, path, body)
	req.ContentLength = body.n
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
		t.Fatalf("%s: reply %q is not the error envelope", path, rec.Body.String())
	}
	return rec.Code, eb.Error, uint64(body.read), after.TotalAlloc - before.TotalAlloc
}

// TestOversizedBodiesRejected: a 100 MB POST to /embed, /predict or
// /reload, on an unsharded and on a sharded model, gets a 400 with the error
// envelope after at most the endpoint's bound has been read, and the
// handler allocates less than floodHeapBound. The model is not
// reloaded.
func TestOversizedBodiesRejected(t *testing.T) {
	ds := testDataset(t, false)
	ckpt := trainAndSave(t, ds, 1, t.TempDir())
	srv := NewServer(ds, Options{Workers: 2})
	defer srv.Close()
	if _, err := srv.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	rt := newTestRouter(t, Options{Workers: 2}, 2, 7, ckpt)
	defer rt.Close()
	for name, h := range map[string]http.Handler{"server": srv, "router": rt} {
		for path, limit := range map[string]int64{"/embed": maxIDsBody, "/predict": maxIDsBody, "/reload": maxReloadBody} {
			status, msg, read, alloc := serveFlood(t, h, path)
			tag := name + " " + path
			if status != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400", tag, status)
			}
			if want := fmt.Sprintf("exceeds %d bytes", limit); !strings.Contains(msg, want) {
				t.Errorf("%s: error %q does not say %q", tag, msg, want)
			}
			if read > uint64(limit)+64<<10 {
				t.Errorf("%s: read %d body bytes, bound %d", tag, read, limit)
			}
			if alloc > floodHeapBound {
				t.Errorf("%s: allocated %d bytes, bound %d", tag, alloc, floodHeapBound)
			}
		}
		ts := httptest.NewServer(h)
		_, health := get(t, ts.URL+"/healthz")
		ts.Close()
		if !bytes.Contains(health, []byte(`"version":1`)) {
			t.Errorf("%s: a rejected /reload changed the model: %s", name, health)
		}
	}
}

// TestInBoundBodiesUnchanged: POST bodies within the bound — the most
// ids a request may carry, one per indented line — still get the same
// bytes as the GET form of the same query.
func TestInBoundBodiesUnchanged(t *testing.T) {
	ds := testDataset(t, false)
	ckpt := trainAndSave(t, ds, 1, t.TempDir())
	srv := NewServer(ds, Options{Workers: 2})
	defer srv.Close()
	if _, err := srv.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, n := range []int{1, 17, maxQueryIDs} {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprint(i * 7 % ds.G.N)
		}
		body := "{\n  \"ids\": [\n    " + strings.Join(ids, ",\n    ") + "\n  ]\n}\n"
		if len(body) > maxIDsBody {
			t.Fatalf("test body of %d ids is %d bytes, over the bound", n, len(body))
		}
		for _, path := range []string{"/embed", "/predict"} {
			wantStatus, want := get(t, ts.URL+path+"?ids="+strings.Join(ids, ","))
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if wantStatus != http.StatusOK || resp.StatusCode != wantStatus || !bytes.Equal(got, want) {
				t.Fatalf("%s with %d ids: POST %d %.80q, GET %d %.80q", path, n, resp.StatusCode, got, wantStatus, want)
			}
		}
	}
}
