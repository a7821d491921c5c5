package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// errMethod marks requests using an unsupported HTTP method.
var errMethod = errors.New("serve: method not allowed")

// errNotOwned marks a query for a vertex a shard engine does not own.
// The router never surfaces it — partition-aware routing sends every
// id to its owner — so seeing it means a shard engine was addressed
// directly with a foreign id.
var errNotOwned = errors.New("serve: vertex not owned by this shard")

// errShardDown marks a query whose owning shard is stopped; the
// router returns it so clients can distinguish "this id is
// temporarily unanswerable" (503, retryable) from a caller mistake.
var errShardDown = errors.New("serve: owning shard is down")

// maxQueryIDs bounds one request's id list; larger lookups should
// page. It protects the micro-batcher from one request monopolizing
// a batch.
const maxQueryIDs = 4096

// maxIDsBody bounds a POST id-list body before it is decoded: room for
// maxQueryIDs ids of up to 20 digits, each with a separator and ample
// whitespace. A longer body is rejected with a 400 once this many
// bytes are read, so its size never reaches the heap.
const maxIDsBody = 64*maxQueryIDs + 4096

// maxReloadBody bounds a /reload body, which carries at most two paths.
const maxReloadBody = 64 << 10

// RouteDoc names one registered HTTP route: the methods it accepts
// and its path pattern ({name} marks the model-name segment of
// registry routes).
type RouteDoc struct {
	Methods string
	Pattern string
}

// perModelEndpoints enumerates the per-model endpoints. Each is
// served twice: unprefixed against the default model (the PR 2–4
// single-model surface, byte-compatible) and as /models/{name}/…
// through a Registry. Router.route dispatches from this table and
// RegisteredRoutes derives the documented route list from it, so
// an endpoint cannot be added without showing up in docs/API.md (the
// coverage test in docs_test.go enforces the link).
var perModelEndpoints = []RouteDoc{
	{"GET, POST", "/embed"},
	{"GET, POST", "/predict"},
	{"GET", "/topk"},
	{"GET", "/healthz"},
	{"GET", "/metrics"},
	{"POST", "/reload"},
}

// RegisteredRoutes returns every HTTP route a Registry-fronted
// process serves: the registry's own endpoints plus both spellings of
// each per-model endpoint and of each shard operation (served when
// the model is sharded), each additionally registered under the
// versioned /v1 prefix (the canonical spelling; the unprefixed routes
// are byte-compatible legacy aliases). docs/API.md must document all
// of them.
func RegisteredRoutes() []RouteDoc {
	routes := []RouteDoc{
		{"GET", "/models"},
		// The bare model path is an alias for …/healthz (the extended
		// per-model status body).
		{"GET", "/models/{name}"},
	}
	for _, e := range perModelEndpoints {
		routes = append(routes, RouteDoc{e.Methods, "/models/{name}" + e.Pattern})
	}
	for _, e := range shardEndpoints {
		routes = append(routes, RouteDoc{e.Methods, "/models/{name}" + e.Pattern})
	}
	for _, e := range perModelEndpoints {
		routes = append(routes, e)
	}
	for _, e := range shardEndpoints {
		routes = append(routes, e)
	}
	for _, e := range append([]RouteDoc(nil), routes...) {
		routes = append(routes, RouteDoc{e.Methods, "/v1" + e.Pattern})
	}
	return routes
}

// stripV1 folds the versioned /v1 spelling of a path onto its
// unprefixed alias, so both spellings share one dispatch table and
// one pre-registered endpoint metric label (the cardinality bound:
// the version prefix must not mint new label values).
func stripV1(path string) string {
	if rest, ok := strings.CutPrefix(path, "/v1/"); ok {
		return "/" + rest
	}
	return path
}

// notFoundHandler answers unroutable paths with the JSON error
// envelope — the one error shape every endpoint speaks (the net/http
// default would emit a plain-text 404). The /v1 prefix is folded
// away so an unknown path 404s byte-identically under both
// spellings, like every other answer.
func notFoundHandler(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("serve: unknown endpoint %q", stripV1(r.URL.Path))})
}

// writeJSON emits v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
	// Reason classifies overload-protection rejections machine-readably
	// — "shed" (queue high-water mark), "quota" (QPS limit), "deadline"
	// (per-request deadline expired), "canceled" (client went away).
	// Absent on every other error, so pre-existing error bodies are
	// byte-identical.
	Reason string `json:"reason,omitempty"`
}

// statusFor maps engine errors onto HTTP statuses: server-side
// conditions (no model loaded yet, server closing) are 503 so
// retry policies keyed on 4xx-vs-5xx treat them as retryable,
// shed requests are 429 (back off and retry), expired deadlines are
// 504, unsupported methods are 405, and everything else surfaced
// here is a caller mistake.
func statusFor(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, errShed), errors.Is(err, errQuota):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client disconnected; the status is for the log line, not
		// the (gone) client. 503 keeps it in the retryable class.
		return http.StatusServiceUnavailable
	case errors.Is(err, errClosed), errors.Is(err, errShardDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, errNotOwned):
		return http.StatusNotFound
	case errors.Is(err, errMethod):
		return http.StatusMethodNotAllowed
	case strings.Contains(err.Error(), "no model loaded"):
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// reasonFor classifies overload-protection errors for the structured
// error body ("" for everything else).
func reasonFor(err error) string {
	switch {
	case errors.Is(err, errShed):
		return "shed"
	case errors.Is(err, errQuota):
		return "quota"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	}
	return ""
}

func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, statusFor(err), errorBody{Error: err.Error(), Reason: reasonFor(err)})
}

// boundCtx bounds a query context by the configured per-model
// deadline when one is set. It backs both transports: HTTP handlers
// pass the request context (canceled by net/http on disconnect), the
// wire listener its per-connection context.
func boundCtx(ctx context.Context, deadline time.Duration) (context.Context, context.CancelFunc) {
	if deadline <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, deadline)
}

// queryCtx derives the context an HTTP query runs under.
func queryCtx(r *http.Request, deadline time.Duration) (context.Context, context.CancelFunc) {
	return boundCtx(r.Context(), deadline)
}

// parseVertexID is the one vertex-id parser for every query
// endpoint: plain base-10 digits, nothing else. strconv.Atoi is
// deliberately not used directly — it accepts "+3" and "-0", and
// ad-hoc trimming made "%203" valid on one endpoint and a 400 on
// another. Every endpoint rejecting the same surface forms with the
// same error text is what makes the router's scatter paths
// byte-identical to a single process on malformed input too.
func parseVertexID(tok string) (int, error) {
	bad := func() (int, error) {
		return 0, fmt.Errorf("serve: bad vertex id %q (want plain decimal digits)", tok)
	}
	if tok == "" || len(tok) > 10 {
		return bad()
	}
	for i := 0; i < len(tok); i++ {
		if tok[i] < '0' || tok[i] > '9' {
			return bad()
		}
	}
	id, err := strconv.Atoi(tok)
	if err != nil {
		return bad()
	}
	return id, nil
}

// parseIDs extracts the queried vertex ids from ?ids=… or a JSON
// body {"ids":[…]}.
func parseIDs(w http.ResponseWriter, r *http.Request) ([]int, error) {
	var ids []int
	switch r.Method {
	case http.MethodGet:
		raw := r.URL.Query().Get("ids")
		if raw == "" {
			return nil, fmt.Errorf("serve: missing ids parameter")
		}
		for _, tok := range strings.Split(raw, ",") {
			id, err := parseVertexID(tok)
			if err != nil {
				return nil, err
			}
			ids = append(ids, id)
		}
	case http.MethodPost:
		var body struct {
			IDs []int `json:"ids"`
		}
		if err := decodeBody(w, r, maxIDsBody, &body); err != nil {
			return nil, err
		}
		ids = body.IDs
	default:
		return nil, fmt.Errorf("%w: %s", errMethod, r.Method)
	}
	if err := checkQueryIDs(ids); err != nil {
		return nil, err
	}
	return ids, nil
}

// decodeBody decodes r's JSON body into v, reading at most limit bytes
// of it (http.MaxBytesReader, which also has net/http close the
// connection after the reply).
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		return fmt.Errorf("serve: request body exceeds %d bytes", limit)
	}
	if err != nil {
		return fmt.Errorf("serve: bad JSON body: %w", err)
	}
	return nil
}

// checkQueryIDs enforces the id-list bounds every transport shares:
// HTTP and wire requests reject empty and oversized lists with
// identical error text (the cross-transport equivalence contract).
func checkQueryIDs(ids []int) error {
	if len(ids) == 0 {
		return fmt.Errorf("serve: no ids given")
	}
	if len(ids) > maxQueryIDs {
		return fmt.Errorf("serve: %d ids exceeds the per-request limit of %d", len(ids), maxQueryIDs)
	}
	return nil
}

// topkQuery is a parsed /topk request.
type topkQuery struct {
	id, k int
	mode  string
	ef    int
}

// parseTopKQuery validates a /topk request for a graph of the given
// vertex count. Every model's /topk handler parses through it, so all
// shard counts reject exactly the same surface forms with the same
// bodies.
func parseTopKQuery(r *http.Request, vertices int, annEnabled bool) (topkQuery, error) {
	if r.Method != http.MethodGet {
		return topkQuery{}, fmt.Errorf("%w: %s", errMethod, r.Method)
	}
	q := r.URL.Query()
	if q.Get("id") == "" {
		return topkQuery{}, fmt.Errorf("serve: missing id parameter")
	}
	id, err := parseVertexID(q.Get("id"))
	if err != nil {
		return topkQuery{}, err
	}
	k, kSet := 0, false
	if raw := q.Get("k"); raw != "" {
		kSet = true
		if k, err = strconv.Atoi(raw); err != nil {
			return topkQuery{}, fmt.Errorf("serve: bad k parameter %q", raw)
		}
	}
	// Validate the mode string before parsing ef so a doubly-invalid
	// request reports the bad mode first, as it always has.
	mode := q.Get("mode")
	if _, err := resolveTopK(topkQuery{mode: mode}, true, vertices, annEnabled); err != nil {
		return topkQuery{}, err
	}
	ef := 0
	if raw := q.Get("ef"); raw != "" {
		if ef, err = strconv.Atoi(raw); err != nil || ef < 1 {
			return topkQuery{}, fmt.Errorf("serve: bad ef parameter %q (want a positive integer)", raw)
		}
	}
	return resolveTopK(topkQuery{id: id, k: k, mode: mode, ef: ef}, kSet, vertices, annEnabled)
}

// resolveTopK applies the semantic top-K rules both transports share
// once their surface forms are parsed: the unset-k default clamped to
// the graph, mode-string validation, and the ef-requires-ann rule.
// Keeping them in one resolver is what makes a wire request and its
// HTTP twin succeed or fail with identical error text.
func resolveTopK(q topkQuery, kSet bool, vertices int, annEnabled bool) (topkQuery, error) {
	if !kSet {
		// The client sent no k: clamp the server-side default to the
		// graph rather than rejecting it for exceeding |V|-1 (an
		// explicit out-of-range k is still an error).
		q.k = 10
		if q.k > vertices-1 {
			q.k = vertices - 1
		}
	}
	switch q.mode {
	case ModeAuto, ModeExact, ModeANN:
	default:
		return topkQuery{}, fmt.Errorf("serve: bad mode parameter %q (want exact or ann)", q.mode)
	}
	if q.ef != 0 && (q.mode == ModeExact || (q.mode == ModeAuto && !annEnabled)) {
		return topkQuery{}, fmt.Errorf("serve: ef applies only to mode=ann")
	}
	return q, nil
}

// healthBody is a model's /healthz body; the registry's per-model
// status embeds it, so that body is a field superset of this one.
type healthBody struct {
	Status       string  `json:"status"`
	Version      uint64  `json:"version"`
	ModelVersion uint64  `json:"model_version"`
	Vertices     int     `json:"vertices"`
	Edges        int64   `json:"edges"`
	Dim          int     `json:"dim"`
	Classes      int     `json:"classes"`
	WarmStart    bool    `json:"warm_start"`
	WarmNote     string  `json:"warm_note,omitempty"`
	Dtype        string  `json:"dtype"`
	ResidentB    int64   `json:"resident_bytes"`
	MappedB      int64   `json:"mapped_bytes,omitempty"`
	Batches      uint64  `json:"batches"`
	Queries      uint64  `json:"queries"`
	Coalescing   float64 `json:"coalescing"`
}

// reloadBody is the successful /reload response.
type reloadBody struct {
	Version      uint64 `json:"version"`
	ModelVersion uint64 `json:"model_version"`
	WarmStart    bool   `json:"warm_start"`
	WarmNote     string `json:"warm_note,omitempty"`
}
