package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"gsgcn/internal/datasets"
	"gsgcn/internal/obs"
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

// Server is the HTTP/JSON request layer over an inference Engine.
//
// Endpoints:
//
//	GET|POST /embed    ?ids=0,1,2     → embedding vectors
//	GET|POST /predict  ?ids=0,1,2     → class labels + probabilities
//	GET      /topk     ?id=7&k=10     → most cosine-similar vertices
//	                   &mode=exact|ann&ef=64 (ann: HNSW beam search)
//	GET      /healthz                 → liveness + serving stats
//	GET      /metrics                 → Prometheus text exposition
//	POST     /reload   {"path": "…"}  → hot-swap a new checkpoint
//
// POST bodies are JSON ({"ids":[…]}). Point queries arriving
// concurrently are coalesced by the micro-batcher; every response
// carries the snapshot version it was answered from. Every request
// passes through the shared obs middleware (request/latency/error
// metrics, optional structured access log) — observation-only, so
// answers are bit-identical with instrumentation on or off.
type Server struct {
	eng  *Engine
	bat  *batcher
	gate *admitGate
	mux  *http.ServeMux
	inst *modelMetrics

	mu       sync.Mutex
	ckptPath string

	// swapMu serializes whole /reload sequences (artifact retarget →
	// load → rollback on failure) so concurrent reloads cannot
	// interleave their retargets and restores. It is never taken on
	// the query or health paths.
	swapMu sync.Mutex
}

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
// through a Registry. NewServer registers handlers from this table
// and RegisteredRoutes derives the documented route list from it, so
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

// handlerFor maps an endpoint pattern to its handler on s.
func (s *Server) handlerFor(pattern string) http.HandlerFunc {
	switch pattern {
	case "/embed":
		return s.handleEmbed
	case "/predict":
		return s.handlePredict
	case "/topk":
		return s.handleTopK
	case "/healthz":
		return s.handleHealthz
	case "/metrics":
		return s.handleMetrics
	case "/reload":
		return s.handleReload
	}
	panic("serve: endpoint " + pattern + " has no handler")
}

// NewServer builds a server over ds. No checkpoint is loaded yet;
// call Load (or POST /reload with a path) before serving queries.
func NewServer(ds *datasets.Dataset, opts Options) *Server {
	opts = opts.withDefaults()
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	eng := NewEngine(ds, opts)
	s := &Server{eng: eng, bat: newBatcher(eng, eng.opts.MaxBatch)}
	s.gate = newAdmitGate(eng.opts, func() int { return len(s.bat.reqs) })
	s.gate.instrument(opts.Obs, map[string]string{"model": opts.ModelName})
	s.bat.instrument(opts.Obs, map[string]string{"model": opts.ModelName})
	s.inst = newModelMetrics(opts.Obs, opts.ModelName, opts.AccessLog, endpointPatterns(perModelEndpoints))
	mux := http.NewServeMux()
	for _, e := range perModelEndpoints {
		h := s.handlerFor(e.Pattern)
		mux.HandleFunc(e.Pattern, h)
		mux.HandleFunc("/v1"+e.Pattern, h)
	}
	mux.HandleFunc("/", notFoundHandler)
	s.mux = mux
	return s
}

// Engine exposes the underlying inference engine.
func (s *Server) Engine() *Engine { return s.eng }

// Load installs the checkpoint at path and remembers it as the
// default for subsequent Reload calls.
func (s *Server) Load(path string) (uint64, error) {
	v, err := s.eng.LoadCheckpoint(path)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.ckptPath = path
	s.mu.Unlock()
	return v, nil
}

// Reload re-reads the last loaded checkpoint path and swaps the new
// snapshot in without interrupting in-flight requests.
func (s *Server) Reload() (uint64, error) {
	s.mu.Lock()
	path := s.ckptPath
	s.mu.Unlock()
	if path == "" {
		return 0, fmt.Errorf("serve: no checkpoint path to reload")
	}
	return s.eng.LoadCheckpoint(path)
}

// CheckpointPath returns the checkpoint the server last loaded
// (empty before the first Load).
func (s *Server) CheckpointPath() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckptPath
}

// Close stops the micro-batch dispatcher.
func (s *Server) Close() { s.bat.close() }

// ServeHTTP implements http.Handler. Every request — known endpoint
// or not — runs under the obs middleware; unknown paths fold into the
// catch-all endpoint label, and /v1 spellings share their alias's
// label.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.inst.serve(stripV1(r.URL.Path), s.mux, w, r)
}

// instruments exposes the server's obs middleware to the registry,
// which bills its own per-model status route to the model it serves.
func (s *Server) instruments() *modelMetrics { return s.inst }

// handleMetrics serves the model-scoped Prometheus rows. Behind a
// Registry the same handler backs /models/{name}/metrics, while the
// registry's bare /metrics renders every model's rows.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.inst.handleMetrics(w, r)
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

func (s *Server) handleEmbed(w http.ResponseWriter, r *http.Request) {
	release, err := s.gate.admit()
	if err != nil {
		writeQueryErr(w, r, err)
		return
	}
	defer release()
	ids, err := parseIDs(w, r)
	if err != nil {
		writeQueryErr(w, r, err)
		return
	}
	ctx, cancel := queryCtx(r, s.eng.opts.Deadline)
	defer cancel()
	res, batch, err := s.bat.Embed(ctx, ids)
	if err != nil {
		writeQueryErr(w, r, err)
		return
	}
	annotBatch(r.Context(), batch)
	writeEmbedRes(w, r, res)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	release, err := s.gate.admit()
	if err != nil {
		writeQueryErr(w, r, err)
		return
	}
	defer release()
	ids, err := parseIDs(w, r)
	if err != nil {
		writeQueryErr(w, r, err)
		return
	}
	ctx, cancel := queryCtx(r, s.eng.opts.Deadline)
	defer cancel()
	res, batch, err := s.bat.Predict(ctx, ids)
	if err != nil {
		writeQueryErr(w, r, err)
		return
	}
	annotBatch(r.Context(), batch)
	writePredictRes(w, r, res)
}

// topkQuery is a parsed /topk request.
type topkQuery struct {
	id, k int
	mode  string
	ef    int
}

// parseTopKQuery validates a /topk request for a graph of the given
// vertex count. It is shared by the single-engine handler and the
// scatter-gather router so both reject exactly the same surface forms
// with the same bodies.
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

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	release, err := s.gate.admit()
	if err != nil {
		writeQueryErr(w, r, err)
		return
	}
	defer release()
	tq, err := parseTopKQuery(r, s.eng.ds.G.NumVertices(), s.eng.opts.ANN)
	if err != nil {
		writeQueryErr(w, r, err)
		return
	}
	res, err := s.eng.TopKWith(tq.id, tq.k, tq.mode, tq.ef)
	if err != nil {
		writeQueryErr(w, r, err)
		return
	}
	writeTopKRes(w, r, res)
}

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

// health assembles the single-model health body. It is the one
// source of truth for both the legacy /healthz response and the
// per-model extended status (modelStatus embeds healthBody), so the
// documented "per-model healthz is a superset of legacy /healthz"
// invariant holds by construction.
func (s *Server) health() healthBody {
	body := healthBody{
		Status:   "loading",
		Vertices: s.eng.ds.G.NumVertices(),
		Edges:    s.eng.ds.G.NumEdges(),
		Classes:  s.eng.ds.NumClasses,
		Dtype:    s.eng.opts.Dtype.String(),
	}
	if st, err := s.eng.Snapshot(); err == nil {
		body.Status = "ok"
		body.Version = st.Version
		body.ModelVersion = st.ModelVersion
		body.Dim = st.Dim()
		body.WarmStart = st.WarmStart
		body.WarmNote = st.WarmNote
		body.Dtype = st.Dtype().String()
		body.ResidentB = st.ResidentBytes()
		body.MappedB = st.MappedBytes()
	}
	body.Batches, body.Queries = s.bat.Stats()
	if body.Batches > 0 {
		body.Coalescing = float64(body.Queries) / float64(body.Batches)
	}
	return body
}

// modelInfo reports the registry-facing configuration summary of an
// unsharded model.
func (s *Server) modelInfo() modelInfo {
	info := modelInfo{
		artifact:   s.eng.ArtifactPath(),
		annDefault: s.eng.opts.ANN,
		index:      "none",
	}
	if st, err := s.eng.Snapshot(); err == nil {
		if st.IndexReady() {
			info.index = "built"
		} else {
			info.index = "lazy"
		}
	}
	return info
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "serve: reload requires POST"})
		return
	}
	var body struct {
		Path string `json:"path"`
		// Artifact retargets the warm-start source for this and all
		// subsequent reloads before the new snapshot is built: a string
		// points at a new artifact file, "" disables the warm path. When
		// the field is absent the configured source is kept, so a plain
		// {"path": …} reload behaves exactly as before.
		Artifact *string `json:"artifact"`
	}
	if r.Body != nil && r.ContentLength != 0 {
		if err := decodeBody(w, r, maxReloadBody, &body); err != nil {
			writeErr(w, err)
			return
		}
	}
	// Retarget the warm-start source before building the new snapshot
	// (the retarget is what the load should warm from), but restore it
	// if the load fails: a 500 reload must leave every piece of
	// serving state — snapshot, checkpoint path, artifact source —
	// exactly as it was. swapMu makes the retarget+load+rollback
	// sequence atomic against other /reload requests, so a failing
	// reload's rollback can never clobber a concurrent reload's
	// freshly set source.
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	restoreArtifact := func() {}
	if body.Artifact != nil {
		prev := s.eng.ArtifactPath()
		s.eng.SetArtifactPath(*body.Artifact)
		restoreArtifact = func() { s.eng.SetArtifactPath(prev) }
	}
	var (
		v   uint64
		err error
	)
	if body.Path != "" {
		v, err = s.Load(body.Path)
	} else {
		v, err = s.Reload()
	}
	if err != nil {
		restoreArtifact()
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	// Answer from the snapshot the reload just installed — including
	// its warm-start outcome, so a reload that switched artifacts (or
	// lost one) reports the state /healthz will now show.
	st, _ := s.eng.Snapshot()
	writeJSON(w, http.StatusOK, reloadBody{
		Version:      v,
		ModelVersion: st.ModelVersion,
		WarmStart:    st.WarmStart,
		WarmNote:     st.WarmNote,
	})
}

// reloadBody is the successful /reload response.
type reloadBody struct {
	Version      uint64 `json:"version"`
	ModelVersion uint64 `json:"model_version"`
	WarmStart    bool   `json:"warm_start"`
	WarmNote     string `json:"warm_note,omitempty"`
}
