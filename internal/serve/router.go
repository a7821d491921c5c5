package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"gsgcn/internal/ann"
	"gsgcn/internal/artifact"
	"gsgcn/internal/core"
	"gsgcn/internal/datasets"
	"gsgcn/internal/mat"
	"gsgcn/internal/obs"
	"gsgcn/internal/partition"
)

// Router is the one model server: N ≥ 1 shard Engines, each holding
// only the embedding rows of the vertices it owns under a
// deterministic partition.ShardMap, behind one HTTP/JSON surface.
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
//	GET      /shards                  → per-shard status (N > 1 only)
//	POST     /shards/{i}/stop|start   → take a shard out of / into service
//
// An unsharded model is the 1-shard case: its one engine owns the
// whole graph, and it serves no shard fields, routes or series, so its
// surface is the plain single-model one.
//
// Routing is partition-aware. /embed and /predict group the queried
// ids by owning shard and answer through each owner's micro-batcher;
// when one shard owns every id (always, at N = 1) its answer is the
// answer, otherwise the sub-answers are stitched back in request
// order. /topk takes the query vertex's row from its owner, probes
// every live shard, and merges the per-shard lists with ann.Merge
// under ann.Before (descending score, ascending id). Each shard's rows
// ascend in global id, so in exact mode the merged answer is
// byte-identical at every shard count and Workers setting
// (test-enforced). In ann mode each shard searches its own HNSW index:
// deterministic at a fixed shard count, but not across shard counts
// (an index over a shard's rows is a different graph than one over all
// rows — see docs/API.md).
//
// Failure semantics are degraded-not-dead: a stopped shard removes
// only its vertices from service. /healthz always answers 200 and
// reports per-shard status (ok / degraded / loading); requests whose
// ids live on healthy shards keep answering bit-identically, requests
// owned by a down shard fail 503, and /topk answers assembled while a
// non-owning shard was down carry "degraded": true instead of
// silently passing off a partial scan as the full one.
type Router struct {
	ds      *datasets.Dataset
	opts    Options // resolved; ShardCount/ShardSeed describe the fleet
	sm      partition.ShardMap
	engines []*Engine
	// bats micro-batch each shard's sub-queries: concurrent requests
	// whose ids land on one shard coalesce into one gather there.
	// Per-shard counts aggregate into the health body.
	bats []*batcher
	down []atomic.Bool

	// gate is the model's admission control; its depth probe reads the
	// deepest shard queue, because a scatter answers at the pace of its
	// slowest shard.
	gate *admitGate

	closed atomic.Bool

	// inst is the shared obs middleware; degraded counts queries
	// refused because their owning shard was down plus top-K answers
	// assembled while any shard was down (observation-only; exported
	// only when N > 1).
	inst     *modelMetrics
	degraded *obs.Counter

	// routes maps each per-model endpoint to its handler, bound once
	// here so that dispatching a request allocates nothing.
	routes map[string]http.HandlerFunc

	mu       sync.Mutex
	ckptPath string

	// artMu guards artBase, the model's artifact base path; each shard
	// of a fleet derives its own artifact.ShardPath from it.
	artMu   sync.Mutex
	artBase string

	// swapMu serializes whole /reload sequences (artifact retarget →
	// load → rollback on failure) so concurrent reloads cannot
	// interleave their retargets and restores. It is never taken on
	// the query or health paths.
	swapMu sync.Mutex

	// cache memoizes merged /topk answers. Answers computed while any
	// shard was down are never memoized: they are partial by
	// construction and must not outlive the outage.
	cache topkMemo
}

// NewServer builds an unsharded model server over ds: a Router with
// one shard. No checkpoint is loaded yet; call Load (or POST /reload
// with a path) before serving queries.
func NewServer(ds *datasets.Dataset, opts Options) *Router {
	rt, _ := NewRouter(ds, opts, 1, 0)
	return rt
}

// NewRouter builds a model server over ds with shards Engines whose
// vertex ownership is the deterministic ShardMap{shards, seed}.
// Options.ArtifactPath, when set, is the artifact base: with shards > 1
// shard i warm-starts from artifact.ShardPath(base, i, shards), with
// one shard the engine is an ordinary whole-graph engine reading the
// base path itself. No checkpoint is loaded yet; call Load before
// serving queries.
func NewRouter(ds *datasets.Dataset, opts Options, shards int, seed uint64) (*Router, error) {
	if shards < 1 {
		return nil, fmt.Errorf("serve: shard count must be >= 1, got %d", shards)
	}
	opts = opts.withDefaults()
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	opts.ShardCount = shards
	opts.ShardIndex = 0
	opts.ShardSeed = seed
	rt := &Router{
		ds:       ds,
		opts:     opts,
		sm:       partition.ShardMap{Shards: shards, Seed: seed},
		engines:  make([]*Engine, shards),
		bats:     make([]*batcher, shards),
		down:     make([]atomic.Bool, shards),
		artBase:  opts.ArtifactPath,
		cache:    newTopkMemo(opts.TopKCache),
		degraded: new(obs.Counter),
	}
	model := map[string]string{"model": opts.ModelName}
	for i := range rt.engines {
		o := opts
		o.ShardIndex = i
		if o.ArtifactPath != "" && shards > 1 {
			o.ArtifactPath = artifact.ShardPath(o.ArtifactPath, i, shards)
		}
		rt.engines[i] = NewEngine(ds, o)
		rt.bats[i] = newBatcher(rt.engines[i], opts.MaxBatch)
	}
	rt.gate = newAdmitGate(opts, func() int {
		max := 0
		for _, b := range rt.bats {
			if d := len(b.reqs); d > max {
				max = d
			}
		}
		return max
	})
	rt.gate.instrument(opts.Obs, model)
	endpoints := [][]RouteDoc{perModelEndpoints}
	for i, b := range rt.bats {
		labels := model
		if shards > 1 {
			labels = map[string]string{"model": opts.ModelName, "shard": strconv.Itoa(i)}
		}
		b.instrument(opts.Obs, labels)
	}
	if shards > 1 {
		endpoints = append(endpoints, shardEndpoints)
		rt.degraded = opts.Obs.Counter("gsgcn_degraded_queries_total",
			"Queries refused because their owning shard was down, plus top-K answers assembled without a down shard's vertices.",
			model)
		for i := range rt.engines {
			idx := i
			opts.Obs.GaugeFunc("gsgcn_shard_up", "1 when the shard is in service, 0 while stopped.",
				map[string]string{"model": opts.ModelName, "shard": strconv.Itoa(idx)},
				func() float64 {
					if rt.down[idx].Load() {
						return 0
					}
					return 1
				})
		}
	}
	rt.inst = newModelMetrics(opts.Obs, opts.ModelName, opts.AccessLog, endpointPatterns(endpoints...))
	rt.routes = map[string]http.HandlerFunc{
		"/embed":   rt.handleEmbed,
		"/predict": rt.handlePredict,
		"/topk":    rt.handleTopK,
		"/healthz": rt.handleHealthz,
		"/metrics": rt.inst.handleMetrics,
		"/reload":  rt.handleReload,
	}
	return rt, nil
}

// Shards returns the model's shard count (1 = unsharded).
func (rt *Router) Shards() int { return len(rt.engines) }

// ShardSeed returns the seed keying the vertex-shard assignment.
func (rt *Router) ShardSeed() uint64 { return rt.opts.ShardSeed }

// Shard returns shard i's engine (for tests and direct inspection).
func (rt *Router) Shard(i int) *Engine { return rt.engines[i] }

// Engine returns the whole-graph engine of an unsharded model, nil
// when the model is sharded (no one engine holds every row then).
func (rt *Router) Engine() *Engine {
	if len(rt.engines) > 1 {
		return nil
	}
	return rt.engines[0]
}

// Load reads the checkpoint at path once and installs the model
// across every shard, returning the new version. It is remembered as
// the default for subsequent Reload calls.
func (rt *Router) Load(path string) (uint64, error) {
	m, err := core.LoadModelFile(path)
	if err != nil {
		return 0, err
	}
	v, err := rt.Install(m)
	if err != nil {
		return 0, err
	}
	rt.mu.Lock()
	rt.ckptPath = path
	rt.mu.Unlock()
	return v, nil
}

// Reload re-reads the last loaded checkpoint path and swaps the fresh
// model in without interrupting in-flight requests.
func (rt *Router) Reload() (uint64, error) {
	path := rt.CheckpointPath()
	if path == "" {
		return 0, fmt.Errorf("serve: no checkpoint path to reload")
	}
	m, err := core.LoadModelFile(path)
	if err != nil {
		return 0, err
	}
	return rt.Install(m)
}

// CheckpointPath returns the checkpoint the model last loaded (empty
// before the first Load).
func (rt *Router) CheckpointPath() string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ckptPath
}

// Install publishes an in-memory model on every shard engine in
// lockstep. The expensive whole-graph table compute is shared: the
// first shard that misses its warm-start artifact runs it, every other
// cold shard compacts from the same tables. Each engine bumps its
// version by exactly one per install, and the only failure mode
// (model/dataset shape mismatch) is identical across shards, so shard
// versions can never diverge.
func (rt *Router) Install(m *core.Model) (uint64, error) {
	var (
		once  sync.Once
		emb   *mat.Dense
		norms []float64
	)
	full := func() (*mat.Dense, []float64) {
		once.Do(func() { emb, norms = computeTables(m, rt.ds, rt.opts) })
		return emb, norms
	}
	var version uint64
	for i, e := range rt.engines {
		v, err := e.InstallShared(m, full)
		if err != nil && len(rt.engines) > 1 {
			err = fmt.Errorf("serve: shard %d: %w", i, err)
		}
		if err != nil {
			return 0, err
		}
		version = v
	}
	rt.cache.dropStale(version)
	return version, nil
}

// Close marks the model closed and stops every shard's micro-batch
// dispatcher; subsequent queries fail with a retryable 503.
func (rt *Router) Close() {
	rt.closed.Store(true)
	for _, b := range rt.bats {
		b.close()
	}
}

// StopShard takes shard i out of service: its vertices stop
// answering (503) and /healthz reports the fleet degraded. The
// shard's snapshot is kept, so StartShard restores service instantly.
func (rt *Router) StopShard(i int) error {
	if i < 0 || i >= len(rt.engines) {
		return fmt.Errorf("serve: shard %d out of range [0,%d)", i, len(rt.engines))
	}
	rt.down[i].Store(true)
	return nil
}

// StartShard returns shard i to service.
func (rt *Router) StartShard(i int) error {
	if i < 0 || i >= len(rt.engines) {
		return fmt.Errorf("serve: shard %d out of range [0,%d)", i, len(rt.engines))
	}
	rt.down[i].Store(false)
	return nil
}

// admitted runs the checks every query makes before any shard work,
// in one order at every shard count: closed, then no model loaded,
// then per id its range and whether its owner is down. It returns
// shard 0's snapshot, whose vertex count is the graph's.
func (rt *Router) admitted(ids []int) (*State, error) {
	if rt.closed.Load() {
		return nil, errClosed
	}
	st, err := rt.engines[0].Snapshot()
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("serve: no ids given")
	}
	for _, id := range ids {
		if id < 0 || id >= st.total {
			return nil, fmt.Errorf("serve: vertex id %d out of range [0,%d)", id, st.total)
		}
		if o := rt.sm.Assign(int32(id)); rt.down[o].Load() {
			rt.degraded.Inc()
			return nil, fmt.Errorf("%w: vertex id %d is owned by stopped shard %d", errShardDown, id, o)
		}
	}
	return st, nil
}

// group assigns admitted ids to their owning shards. When one shard
// owns every id (always, unsharded) it returns that shard and no
// grouping, so the caller can hand it the request unchanged.
func (rt *Router) group(ids []int) (single int, groups [][]int, owners []int) {
	single = rt.sm.Assign(int32(ids[0]))
	for _, id := range ids[1:] {
		if rt.sm.Assign(int32(id)) != single {
			single = -1
			break
		}
	}
	if single >= 0 {
		return single, nil, nil
	}
	groups = make([][]int, len(rt.engines))
	owners = make([]int, len(ids))
	for i, id := range ids {
		o := rt.sm.Assign(int32(id))
		owners[i] = o
		groups[o] = append(groups[o], id)
	}
	return -1, groups, owners
}

// scatter runs fn once per shard that owns any of the grouped ids,
// concurrently, and reports the first error.
func (rt *Router) scatter(groups [][]int, fn func(shard int, ids []int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(groups))
	for s, ids := range groups {
		if len(ids) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, ids []int) {
			defer wg.Done()
			errs[s] = fn(s, ids)
		}(s, ids)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Embed answers an embedding query. The response is byte-identical at
// every shard count: vertices and their rows are the same bits
// wherever they live, and the version counters advance in lockstep.
func (rt *Router) Embed(ids []int) (*EmbedResult, error) {
	res, _, _, err := rt.embed(context.Background(), ids)
	return res, err
}

// embed is Embed plus the scatter fan-out width and the micro-batch
// id of a single-owner answer, which the HTTP layer records in the
// request log. ctx bounds every sub-query: when it ends, each shard's
// submit gives up and the gather fails with the context's error.
func (rt *Router) embed(ctx context.Context, ids []int) (*EmbedResult, int, uint64, error) {
	if _, err := rt.admitted(ids); err != nil {
		return nil, 0, 0, err
	}
	single, groups, owners := rt.group(ids)
	if single >= 0 {
		res, batch, err := rt.bats[single].Embed(ctx, ids)
		return res, 1, batch, err
	}
	parts := make([]*EmbedResult, len(rt.engines))
	err := rt.scatter(groups, func(s int, sub []int) error {
		res, _, err := rt.bats[s].Embed(ctx, sub)
		parts[s] = res
		return err
	})
	if err != nil {
		return nil, 0, 0, err
	}
	first := parts[owners[0]]
	res := &EmbedResult{
		Version:      first.Version,
		ModelVersion: first.ModelVersion,
		Dim:          first.Dim,
		IDs:          ids,
		Vectors:      make([][]float64, len(ids)),
	}
	pos := make([]int, len(rt.engines))
	for i, o := range owners {
		res.Vectors[i] = parts[o].Vectors[pos[o]]
		pos[o]++
	}
	return res, fanout(groups), 0, nil
}

// fanout counts the shards a grouped query actually scattered to.
func fanout(groups [][]int) int {
	n := 0
	for _, g := range groups {
		if len(g) > 0 {
			n++
		}
	}
	return n
}

// Predict answers a prediction query by the same routing as Embed.
func (rt *Router) Predict(ids []int) (*PredictResult, error) {
	res, _, _, err := rt.predict(context.Background(), ids)
	return res, err
}

// predict is Predict plus the fan-out width and single-owner batch id.
func (rt *Router) predict(ctx context.Context, ids []int) (*PredictResult, int, uint64, error) {
	if _, err := rt.admitted(ids); err != nil {
		return nil, 0, 0, err
	}
	single, groups, owners := rt.group(ids)
	if single >= 0 {
		res, batch, err := rt.bats[single].Predict(ctx, ids)
		return res, 1, batch, err
	}
	parts := make([]*PredictResult, len(rt.engines))
	err := rt.scatter(groups, func(s int, sub []int) error {
		res, _, err := rt.bats[s].Predict(ctx, sub)
		parts[s] = res
		return err
	})
	if err != nil {
		return nil, 0, 0, err
	}
	first := parts[owners[0]]
	res := &PredictResult{
		Version:      first.Version,
		ModelVersion: first.ModelVersion,
		Classes:      first.Classes,
		MultiLabel:   first.MultiLabel,
		IDs:          ids,
		Labels:       make([][]int, len(ids)),
		Probs:        make([][]float64, len(ids)),
	}
	pos := make([]int, len(rt.engines))
	for i, o := range owners {
		res.Labels[i] = parts[o].Labels[pos[o]]
		res.Probs[i] = parts[o].Probs[pos[o]]
		pos[o]++
	}
	return res, fanout(groups), 0, nil
}

// TopK answers a similar-nodes query in the model's default mode.
func (rt *Router) TopK(id, k int) (*TopKResult, error) {
	return rt.TopKWith(id, k, ModeAuto, 0)
}

// TopKWith answers a similar-nodes query: take the query vertex's row
// from its owner, probe every live shard, and merge the per-shard
// lists with ann.Merge. Validation and mode resolution are the
// engine's own (planTopK) against the global vertex count, so every
// shard count answers exact mode byte-identically. With one live shard
// its list is the answer. Results are memoized per (snapshot version,
// id, k, mode, ef) while every shard is up.
func (rt *Router) TopKWith(id, k int, mode string, ef int) (*TopKResult, error) {
	st, err := rt.admitted([]int{id})
	if err != nil {
		return nil, err
	}
	owner := rt.sm.Assign(int32(id))
	if owner != 0 {
		if st, err = rt.engines[owner].Snapshot(); err != nil {
			return nil, err
		}
	}
	key, err := planTopK(st, id, k, mode, ef, rt.opts, st.total)
	if err != nil {
		return nil, err
	}
	// Snapshot the live set once: the probes and the degraded flag
	// must agree on which shards were skipped.
	live := make([]int, 0, len(rt.engines))
	for i := range rt.engines {
		if !rt.down[i].Load() {
			live = append(live, i)
		}
	}
	degraded := len(live) < len(rt.engines)
	if !degraded {
		if hit, ok := rt.cache.get(key); ok {
			return hit, nil
		}
	}
	row, _ := st.rowOf(id)
	q, qn := st.Emb.Row(row), st.norms[row]
	// probe answers shard s, against the owner's own snapshot st when s
	// is the owner, so an unsharded answer reads one snapshot only.
	probe := func(s int) ([]ann.Candidate, error) {
		sst := st
		if s != owner {
			var err error
			if sst, err = rt.engines[s].Snapshot(); err != nil {
				return nil, err
			}
		}
		return rt.engines[s].shardTopK(sst, q, qn, key), nil
	}
	var cands []ann.Candidate
	if len(live) == 1 {
		cands, err = probe(live[0])
	} else {
		parts := make([][]ann.Candidate, len(live))
		errs := make([]error, len(live))
		var wg sync.WaitGroup
		for i, s := range live {
			wg.Add(1)
			go func(i, s int) {
				defer wg.Done()
				parts[i], errs[i] = probe(s)
			}(i, s)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil && err == nil {
				err = e
			}
		}
		cands = ann.Merge(key.k, parts...)
	}
	if err != nil {
		return nil, err
	}
	if degraded {
		rt.degraded.Inc()
	}
	res := topkResult(st, key, cands, degraded)
	if !degraded {
		rt.cache.put(key, res)
	}
	return res, nil
}

// shardEndpoints enumerates the shard-operations routes a sharded
// model adds on top of the per-model endpoints. Like
// perModelEndpoints, the table is the single source both the handlers
// and the documented route list derive from.
var shardEndpoints = []RouteDoc{
	{"GET", "/shards"},
	{"POST", "/shards/{i}/stop"},
	{"POST", "/shards/{i}/start"},
}

// ServeHTTP implements http.Handler. Paths are hand-routed (the module
// targets pre-1.22 ServeMux, which has no wildcard patterns); every
// request — known endpoint or not — runs under the obs middleware,
// /v1 spellings share their alias's label, and shard-operation paths
// normalize to their documented patterns so a shard index can never
// mint a label value.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	endpoint, h := rt.route(stripV1(r.URL.Path))
	rt.inst.serve(endpoint, h, w, r)
}

// route resolves a path to its handler and bounded endpoint label.
// The shard routes exist only when the model is sharded.
func (rt *Router) route(path string) (string, http.HandlerFunc) {
	if h, ok := rt.routes[path]; ok {
		return path, h
	}
	if len(rt.engines) == 1 {
		return epOther, notFoundHandler
	}
	if path == "/shards" {
		return "/shards", rt.handleShards
	}
	if rest, ok := strings.CutPrefix(path, "/shards/"); ok {
		h := func(w http.ResponseWriter, r *http.Request) { rt.handleShardOp(w, r, rest) }
		if _, op, _ := strings.Cut(rest, "/"); op == "stop" || op == "start" {
			return "/shards/{i}/" + op, h
		}
		return epOther, h
	}
	return epOther, notFoundHandler
}

// annotate records what the request log carries for a query: the
// scatter width on a sharded model, the micro-batch id on an
// unsharded one.
func (rt *Router) annotate(ctx context.Context, fanout int, batch uint64) {
	if len(rt.engines) > 1 {
		annotFanout(ctx, fanout)
	} else {
		annotBatch(ctx, batch)
	}
}

func (rt *Router) handleEmbed(w http.ResponseWriter, r *http.Request) {
	release, err := rt.gate.admit()
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
	ctx, cancel := queryCtx(r, rt.opts.Deadline)
	defer cancel()
	res, n, batch, err := rt.embed(ctx, ids)
	if err != nil {
		writeQueryErr(w, r, err)
		return
	}
	rt.annotate(r.Context(), n, batch)
	writeEmbedRes(w, r, res)
}

func (rt *Router) handlePredict(w http.ResponseWriter, r *http.Request) {
	release, err := rt.gate.admit()
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
	ctx, cancel := queryCtx(r, rt.opts.Deadline)
	defer cancel()
	res, n, batch, err := rt.predict(ctx, ids)
	if err != nil {
		writeQueryErr(w, r, err)
		return
	}
	rt.annotate(r.Context(), n, batch)
	writePredictRes(w, r, res)
}

func (rt *Router) handleTopK(w http.ResponseWriter, r *http.Request) {
	release, err := rt.gate.admit()
	if err != nil {
		writeQueryErr(w, r, err)
		return
	}
	defer release()
	tq, err := parseTopKQuery(r, rt.ds.G.NumVertices(), rt.opts.ANN)
	if err != nil {
		writeQueryErr(w, r, err)
		return
	}
	res, err := rt.TopKWith(tq.id, tq.k, tq.mode, tq.ef)
	if err != nil {
		writeQueryErr(w, r, err)
		return
	}
	live := 0
	for i := range rt.down {
		if !rt.down[i].Load() {
			live++
		}
	}
	rt.annotate(r.Context(), live, 0)
	writeTopKRes(w, r, res)
}

// shardState is one shard's entry in GET /shards and the sharded
// /healthz shard detail.
type shardState struct {
	Shard    int    `json:"shard"`
	Status   string `json:"status"` // "ok" | "down" | "loading"
	Vertices int    `json:"vertices"`
	Version  uint64 `json:"version,omitempty"`
	Warm     bool   `json:"warm_start,omitempty"`
}

// shardStates assembles the live per-shard status list.
func (rt *Router) shardStates() []shardState {
	out := make([]shardState, len(rt.engines))
	for i, e := range rt.engines {
		ss := shardState{Shard: i, Status: "loading", Vertices: rt.ds.G.NumVertices()}
		if e.owned != nil {
			ss.Vertices = len(e.owned)
		}
		if st, err := e.Snapshot(); err == nil {
			ss.Status = "ok"
			ss.Version = st.Version
			ss.Warm = st.WarmStart
		}
		if rt.down[i].Load() {
			ss.Status = "down"
		}
		out[i] = ss
	}
	return out
}

// routerHealth is the sharded /healthz body: the plain health fields
// plus the fleet view. Status is "ok" (all shards serving),
// "degraded" (some shard down or still loading while others serve) or
// "loading" (nothing serving yet); the endpoint always answers HTTP
// 200 — a down shard degrades the fleet, it does not kill it.
type routerHealth struct {
	healthBody
	Shards      int          `json:"shards"`
	ShardSeed   uint64       `json:"shard_seed"`
	ShardsDown  int          `json:"shards_down"`
	ShardDetail []shardState `json:"shard_detail"`
}

// health assembles the model's aggregate health in the plain body
// shape (the registry's /models listing embeds it verbatim).
func (rt *Router) health() healthBody {
	body := healthBody{
		Status:   "loading",
		Vertices: rt.ds.G.NumVertices(),
		Edges:    rt.ds.G.NumEdges(),
		Classes:  rt.ds.NumClasses,
		Dtype:    rt.opts.Dtype.String(),
	}
	loaded, downCount := 0, 0
	warmAll := true
	for i, e := range rt.engines {
		if rt.down[i].Load() {
			downCount++
		}
		st, err := e.Snapshot()
		if err != nil {
			warmAll = false
			continue
		}
		loaded++
		if body.Version == 0 {
			body.Version = st.Version
			body.ModelVersion = st.ModelVersion
			body.Dim = st.Dim()
			body.Dtype = st.Dtype().String()
			if body.WarmNote == "" {
				body.WarmNote = st.WarmNote
			}
		}
		// Memory-plane bytes sum across the fleet: the per-process
		// answer a capacity planner wants.
		body.ResidentB += st.ResidentBytes()
		body.MappedB += st.MappedBytes()
		warmAll = warmAll && st.WarmStart
	}
	switch {
	case loaded == 0:
		body.Status = "loading"
	case downCount > 0 || loaded < len(rt.engines):
		body.Status = "degraded"
	default:
		body.Status = "ok"
	}
	body.WarmStart = loaded > 0 && warmAll
	for _, b := range rt.bats {
		bb, qq := b.Stats()
		body.Batches += bb
		body.Queries += qq
	}
	if body.Batches > 0 {
		body.Coalescing = float64(body.Queries) / float64(body.Batches)
	}
	return body
}

// modelInfo is the configuration summary a model reports for the
// registry's status surface (everything health() doesn't cover).
type modelInfo struct {
	artifact   string
	annDefault bool
	index      string // "built" | "lazy" | "none"
	shards     int    // 0 = unsharded
}

// modelInfo reports the registry-facing configuration summary.
func (rt *Router) modelInfo() modelInfo {
	rt.artMu.Lock()
	base := rt.artBase
	rt.artMu.Unlock()
	info := modelInfo{artifact: base, annDefault: rt.opts.ANN, index: "none"}
	if len(rt.engines) > 1 {
		info.shards = len(rt.engines)
	}
	built := true
	loaded := 0
	for _, e := range rt.engines {
		st, err := e.Snapshot()
		if err != nil {
			continue
		}
		loaded++
		built = built && st.IndexReady()
	}
	if loaded > 0 {
		info.index = "lazy"
		if built && loaded == len(rt.engines) {
			info.index = "built"
		}
	}
	return info
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if len(rt.engines) == 1 {
		writeJSON(w, http.StatusOK, rt.health())
		return
	}
	detail := rt.shardStates()
	downCount := 0
	for _, ss := range detail {
		if ss.Status == "down" {
			downCount++
		}
	}
	writeJSON(w, http.StatusOK, routerHealth{
		healthBody:  rt.health(),
		Shards:      len(rt.engines),
		ShardSeed:   rt.opts.ShardSeed,
		ShardsDown:  downCount,
		ShardDetail: detail,
	})
}

// shardsBody is the GET /shards response.
type shardsBody struct {
	Shards    int          `json:"shards"`
	ShardSeed uint64       `json:"shard_seed"`
	Detail    []shardState `json:"detail"`
}

func (rt *Router) handleShards(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, fmt.Errorf("%w: %s", errMethod, r.Method))
		return
	}
	writeJSON(w, http.StatusOK, shardsBody{
		Shards:    len(rt.engines),
		ShardSeed: rt.opts.ShardSeed,
		Detail:    rt.shardStates(),
	})
}

// handleShardOp serves POST /shards/{i}/stop and /shards/{i}/start.
func (rt *Router) handleShardOp(w http.ResponseWriter, r *http.Request, rest string) {
	idxStr, op, _ := strings.Cut(rest, "/")
	i, err := strconv.Atoi(idxStr)
	if err != nil || op != "stop" && op != "start" {
		notFoundHandler(w, r)
		return
	}
	if r.Method != http.MethodPost {
		writeErr(w, fmt.Errorf("%w: %s", errMethod, r.Method))
		return
	}
	if op == "stop" {
		err = rt.StopShard(i)
	} else {
		err = rt.StartShard(i)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rt.shardStates()[i])
}

// handleReload serves POST /reload: {"path": …} loads a new checkpoint
// (absent: re-read the last one), and {"artifact": base} retargets the
// warm-start source — every shard's ShardPath under the new base, ""
// disabling warm starts — for this and all later reloads, before the
// load. A failed load rolls every retarget back, leaving every piece
// of serving state (snapshot, checkpoint path, artifact sources)
// exactly as it was.
func (rt *Router) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "serve: reload requires POST"})
		return
	}
	var body struct {
		Path     string  `json:"path"`
		Artifact *string `json:"artifact"`
	}
	if r.Body != nil && r.ContentLength != 0 {
		if err := decodeBody(w, r, maxReloadBody, &body); err != nil {
			writeErr(w, err)
			return
		}
	}
	// swapMu makes the retarget+load+rollback sequence atomic against
	// other reloads, so a failing reload's rollback can never clobber a
	// concurrent reload's freshly set source.
	rt.swapMu.Lock()
	defer rt.swapMu.Unlock()
	restoreArtifact := func() {}
	if body.Artifact != nil {
		prevBase := rt.artBase
		prev := make([]string, len(rt.engines))
		for i, e := range rt.engines {
			prev[i] = e.ArtifactPath()
		}
		rt.setArtifactBase(*body.Artifact)
		restoreArtifact = func() {
			rt.artMu.Lock()
			rt.artBase = prevBase
			rt.artMu.Unlock()
			for i, e := range rt.engines {
				e.SetArtifactPath(prev[i])
			}
		}
	}
	var (
		v   uint64
		err error
	)
	if body.Path != "" {
		v, err = rt.Load(body.Path)
	} else {
		v, err = rt.Reload()
	}
	if err != nil {
		restoreArtifact()
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	// Answer from the snapshots the reload just installed, with their
	// warm-start outcome: warm only when every shard warmed, the first
	// shard's note explaining a fallback.
	warm := true
	note := ""
	var mv uint64
	for _, e := range rt.engines {
		st, serr := e.Snapshot()
		if serr != nil {
			continue
		}
		mv = st.ModelVersion
		warm = warm && st.WarmStart
		if note == "" {
			note = st.WarmNote
		}
	}
	writeJSON(w, http.StatusOK, reloadBody{
		Version:      v,
		ModelVersion: mv,
		WarmStart:    warm,
		WarmNote:     note,
	})
}

// setArtifactBase retargets the model's artifact base: every shard
// engine's warm-start source becomes its ShardPath under base (the
// base itself when unsharded).
func (rt *Router) setArtifactBase(base string) {
	rt.artMu.Lock()
	rt.artBase = base
	rt.artMu.Unlock()
	for i, e := range rt.engines {
		p := base
		if p != "" && len(rt.engines) > 1 {
			p = artifact.ShardPath(p, i, len(rt.engines))
		}
		e.SetArtifactPath(p)
	}
}
