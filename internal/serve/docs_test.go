package serve

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestAPIDocCoversRegisteredRoutes enforces the documentation
// contract both ways: every route the serving process registers must
// appear (in backticks) in docs/API.md, and every route named in an
// API.md section heading must still be registered — so the reference
// can neither lag behind the code nor describe endpoints that no
// longer exist.
func TestAPIDocCoversRegisteredRoutes(t *testing.T) {
	raw, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatalf("docs/API.md must exist: %v", err)
	}
	doc := string(raw)

	registered := make(map[string]bool)
	for _, r := range RegisteredRoutes() {
		registered[r.Pattern] = true
		if !strings.Contains(doc, "`"+r.Pattern+"`") {
			t.Errorf("registered route %s %s is not documented in docs/API.md", r.Methods, r.Pattern)
		}
		// The accepted methods must be stated somewhere in the doc for
		// this route's section; a plain mention suffices (e.g. "GET,
		// POST." or a "GET only" note).
		for _, m := range strings.Split(r.Methods, ", ") {
			if !strings.Contains(doc, m) {
				t.Errorf("method %s of route %s never appears in docs/API.md", m, r.Pattern)
			}
		}
	}

	// Reverse direction: routes named in section headings must exist.
	headingRoute := regexp.MustCompile("`(/[^`]*)`")
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(line, "## ") {
			continue
		}
		for _, m := range headingRoute.FindAllStringSubmatch(line, -1) {
			if !registered[m[1]] {
				t.Errorf("docs/API.md documents %q, which is not a registered route", m[1])
			}
		}
	}
}

// TestRegisteredRoutesComplete cross-checks the route table against
// the live router: every per-model endpoint in the table must be
// routable on an unsharded model, and the registry must answer (or cleanly
// reject) both spellings — so the table RegisteredRoutes derives from
// cannot drift from what is actually served.
func TestRegisteredRoutesComplete(t *testing.T) {
	ds := testDataset(t, false)
	srv := NewServer(ds, Options{Workers: 1})
	defer srv.Close()
	for _, e := range perModelEndpoints {
		// The router must resolve the pattern to its own handler and
		// label, not the 404 catch-all.
		if ep, h := srv.route(e.Pattern); h == nil || ep != e.Pattern {
			t.Errorf("router routes %s to endpoint %q", e.Pattern, ep)
		}
	}
	// /models + the bare /models/{name} alias + both spellings of
	// every per-model endpoint and every shard operation — then the
	// whole surface again under the /v1 prefix.
	want := 2 * (2 + 2*(len(perModelEndpoints)+len(shardEndpoints)))
	if got := len(RegisteredRoutes()); got != want {
		t.Errorf("RegisteredRoutes lists %d routes, want %d", got, want)
	}
	seen := make(map[string]bool)
	for _, r := range RegisteredRoutes() {
		if seen[r.Pattern] {
			t.Errorf("duplicate route pattern %s", r.Pattern)
		}
		seen[r.Pattern] = true
		if r.Methods == "" {
			t.Errorf("route %s declares no methods", r.Pattern)
		}
	}
	// Every route must come in exactly the two spellings: /v1 canonical
	// and the unprefixed legacy alias.
	for _, r := range RegisteredRoutes() {
		if v1, ok := strings.CutPrefix(r.Pattern, "/v1/"); ok {
			if !seen["/"+v1] {
				t.Errorf("v1 route %s has no legacy alias", r.Pattern)
			}
		} else if !seen["/v1"+r.Pattern] {
			t.Errorf("route %s has no /v1 spelling", r.Pattern)
		}
	}
}
