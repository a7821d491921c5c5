package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"gsgcn/internal/artifact"
	"gsgcn/internal/core"
	"gsgcn/internal/datasets"
	"gsgcn/internal/mat"
	"gsgcn/internal/obs"
	"gsgcn/internal/partition"
)

// Router is the scatter-gather front end of a sharded serving fleet:
// N shard Engines, each holding only the embedding rows of the
// vertices it owns under a deterministic partition.ShardMap, behind
// the exact same HTTP surface as a single-engine Server.
//
// Routing is partition-aware. /embed and /predict group the queried
// ids by owning shard, scatter one sub-query per owner, and stitch
// the answers back in request order; every id touches exactly one
// shard. /topk first fetches the query vertex's embedding row from
// its owner, then scatters a vector probe to every live shard and
// merges the per-shard candidates through the same bounded-skiplist
// total order (descending score, ascending id) the single-engine scan
// uses — the order is insertion-order-insensitive, so in exact mode
// the merged answer is byte-identical to the single-process one at
// every shard count and Workers setting (test-enforced). In ann mode
// each shard searches its own HNSW index: deterministic at a fixed
// shard count, and byte-identical to the single process at shards=1,
// but not across shard counts (an index over a shard's rows is a
// different graph than one over all rows — see docs/API.md).
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
	// bats micro-batch each shard's scattered sub-queries, exactly as
	// a single-engine server batches whole queries: concurrent
	// requests whose ids land on one shard coalesce into one gather
	// there. Per-shard counts aggregate into the router's health body.
	bats []*batcher
	down []atomic.Bool

	// gate is the fleet's admission control; its depth probe reads the
	// deepest shard queue, because the scatter-gather answers at the
	// pace of its slowest shard.
	gate *admitGate

	closed atomic.Bool

	// inst is the shared obs middleware; degraded counts queries
	// refused because their owning shard was down plus top-K answers
	// assembled while any shard was down (observation-only).
	inst     *modelMetrics
	degraded *obs.Counter

	mu       sync.Mutex
	ckptPath string

	// artMu guards artBase, the fleet-wide artifact base path each
	// shard derives its own artifact.ShardPath from.
	artMu   sync.Mutex
	artBase string

	// swapMu serializes whole /reload sequences, exactly as Server's
	// does: retarget → load → rollback must be atomic against other
	// reloads, and is never taken on the query path.
	swapMu sync.Mutex

	// cache memoizes merged /topk answers per (version, query) — the
	// router-level mirror of the engine cache. Answers computed while
	// any shard was down are never cached: they are partial by
	// construction and must not outlive the outage.
	cacheMu sync.Mutex
	cache   map[topkKey]*TopKResult
}

// NewRouter builds a sharded serving fleet over ds: shards Engines
// whose vertex ownership is the deterministic ShardMap{shards, seed}.
// Options.ArtifactPath, when set, is the fleet-wide artifact base —
// shard i warm-starts from artifact.ShardPath(base, i, shards). With
// shards == 1 the single engine is an ordinary whole-graph engine
// (and the unmodified base artifact path), so a 1-shard router is
// byte-compatible with a plain Server in every mode. No checkpoint is
// loaded yet; call Load before serving queries.
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
		ds:      ds,
		opts:    opts,
		sm:      partition.ShardMap{Shards: shards, Seed: seed},
		engines: make([]*Engine, shards),
		bats:    make([]*batcher, shards),
		down:    make([]atomic.Bool, shards),
		artBase: opts.ArtifactPath,
		cache:   make(map[topkKey]*TopKResult),
	}
	for i := range rt.engines {
		o := opts
		o.ShardIndex = i
		if o.ArtifactPath != "" && shards > 1 {
			o.ArtifactPath = artifact.ShardPath(o.ArtifactPath, i, shards)
		}
		rt.engines[i] = NewEngine(ds, o)
		rt.bats[i] = newBatcher(rt.engines[i], opts.MaxBatch)
		rt.bats[i].instrument(opts.Obs, map[string]string{"model": opts.ModelName, "shard": strconv.Itoa(i)})
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
	rt.gate.instrument(opts.Obs, map[string]string{"model": opts.ModelName})
	rt.inst = newModelMetrics(opts.Obs, opts.ModelName, opts.AccessLog, endpointPatterns(perModelEndpoints, shardEndpoints))
	rt.degraded = opts.Obs.Counter("gsgcn_degraded_queries_total",
		"Queries refused because their owning shard was down, plus top-K answers assembled without a down shard's vertices.",
		map[string]string{"model": opts.ModelName})
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
	return rt, nil
}

// Shards returns the fleet's shard count.
func (rt *Router) Shards() int { return len(rt.engines) }

// ShardSeed returns the seed keying the vertex-shard assignment.
func (rt *Router) ShardSeed() uint64 { return rt.opts.ShardSeed }

// Engine returns shard i's engine (for tests and direct inspection).
func (rt *Router) Engine(i int) *Engine { return rt.engines[i] }

// Load reads the checkpoint at path once and installs the model
// across the whole fleet, returning the fleet's new version.
func (rt *Router) Load(path string) (uint64, error) {
	m, err := core.LoadModelFile(path)
	if err != nil {
		return 0, err
	}
	v, err := rt.installAll(m)
	if err != nil {
		return 0, err
	}
	rt.mu.Lock()
	rt.ckptPath = path
	rt.mu.Unlock()
	return v, nil
}

// Reload re-reads the last loaded checkpoint path and installs the
// fresh model across the fleet.
func (rt *Router) Reload() (uint64, error) {
	rt.mu.Lock()
	path := rt.ckptPath
	rt.mu.Unlock()
	if path == "" {
		return 0, fmt.Errorf("serve: no checkpoint path to reload")
	}
	m, err := core.LoadModelFile(path)
	if err != nil {
		return 0, err
	}
	return rt.installAll(m)
}

// CheckpointPath returns the checkpoint the router last loaded.
func (rt *Router) CheckpointPath() string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ckptPath
}

// Install publishes an in-memory model across the whole fleet.
func (rt *Router) Install(m *core.Model) (uint64, error) {
	return rt.installAll(m)
}

// installAll installs one model on every shard engine in lockstep.
// The expensive whole-graph table compute is shared: the first shard
// that misses its warm-start artifact runs it, every other cold shard
// compacts from the same tables. Each engine bumps its version by
// exactly one per fleet install, and the only failure mode
// (model/dataset shape mismatch) is identical across shards, so shard
// versions can never diverge.
func (rt *Router) installAll(m *core.Model) (uint64, error) {
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
		if err != nil {
			return 0, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		version = v
	}
	rt.cacheMu.Lock()
	for k := range rt.cache {
		if k.version != version {
			delete(rt.cache, k)
		}
	}
	rt.cacheMu.Unlock()
	return version, nil
}

// Close marks the router closed and stops every shard's micro-batch
// dispatcher; subsequent queries fail with the same retryable error a
// closed single-engine server returns.
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

// group assigns each queried id to its owning shard, failing with a
// retryable 503 when any owner is down — partial answers to point
// queries are never served. Range errors use the exact text a
// single-engine server produces, so malformed requests get identical
// bytes from both deployments.
func (rt *Router) group(ids []int) (groups [][]int, owners []int, err error) {
	if rt.closed.Load() {
		return nil, nil, errClosed
	}
	total := rt.ds.G.NumVertices()
	groups = make([][]int, len(rt.engines))
	owners = make([]int, len(ids))
	for i, id := range ids {
		if id < 0 || id >= total {
			return nil, nil, fmt.Errorf("serve: vertex id %d out of range [0,%d)", id, total)
		}
		o := rt.sm.Assign(int32(id))
		if rt.down[o].Load() {
			rt.degraded.Inc()
			return nil, nil, fmt.Errorf("%w: vertex id %d is owned by stopped shard %d", errShardDown, id, o)
		}
		owners[i] = o
		groups[o] = append(groups[o], id)
	}
	return groups, owners, nil
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

// Embed answers an embedding query by scattering the ids to their
// owning shards and stitching the vectors back in request order. The
// response is byte-identical to a single-engine server's: vertices
// and their rows are the same bits wherever they live, and the
// version counters advance in lockstep.
func (rt *Router) Embed(ids []int) (*EmbedResult, error) {
	res, _, err := rt.embed(context.Background(), ids)
	return res, err
}

// embed is Embed plus the scatter fan-out width (shards that owned
// any queried id), which the HTTP layer records in the request log.
// ctx bounds every scattered sub-query: when it ends, each shard's
// submit gives up and the gather fails with the context's error.
func (rt *Router) embed(ctx context.Context, ids []int) (*EmbedResult, int, error) {
	groups, owners, err := rt.group(ids)
	if err != nil {
		return nil, 0, err
	}
	parts := make([]*EmbedResult, len(rt.engines))
	err = rt.scatter(groups, func(s int, sub []int) error {
		res, _, err := rt.bats[s].Embed(ctx, sub)
		parts[s] = res
		return err
	})
	if err != nil {
		return nil, 0, err
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
	return res, fanout(groups), nil
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

// Predict answers a prediction query by the same scatter/stitch.
func (rt *Router) Predict(ids []int) (*PredictResult, error) {
	res, _, err := rt.predict(context.Background(), ids)
	return res, err
}

// predict is Predict plus the scatter fan-out width.
func (rt *Router) predict(ctx context.Context, ids []int) (*PredictResult, int, error) {
	groups, owners, err := rt.group(ids)
	if err != nil {
		return nil, 0, err
	}
	parts := make([]*PredictResult, len(rt.engines))
	err = rt.scatter(groups, func(s int, sub []int) error {
		res, _, err := rt.bats[s].Predict(ctx, sub)
		parts[s] = res
		return err
	})
	if err != nil {
		return nil, 0, err
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
	return res, fanout(groups), nil
}

// TopK answers a similar-nodes query in the router's default mode.
func (rt *Router) TopK(id, k int) (*TopKResult, error) {
	return rt.TopKWith(id, k, ModeAuto, 0)
}

// TopKWith is the scatter-gather top-K: fetch the query vector from
// the owning shard, probe every live shard, merge under the tkBefore
// total order. Validation, mode resolution, ef defaulting and the
// exact-scan fallback replicate Engine.TopKWith bit-for-bit against
// the global vertex count, so the 1-shard router and the N-shard
// exact mode are byte-identical to a single process.
func (rt *Router) TopKWith(id, k int, mode string, ef int) (*TopKResult, error) {
	if rt.closed.Load() {
		return nil, errClosed
	}
	total := rt.ds.G.NumVertices()
	if id < 0 || id >= total {
		return nil, fmt.Errorf("serve: vertex id %d out of range [0,%d)", id, total)
	}
	owner := rt.sm.Assign(int32(id))
	if rt.down[owner].Load() {
		rt.degraded.Inc()
		return nil, fmt.Errorf("%w: vertex id %d is owned by stopped shard %d", errShardDown, id, owner)
	}
	st, q, qn, err := rt.engines[owner].snapshotRow(id)
	if err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("serve: k must be >= 1, got %d", k)
	}
	if max := total - 1; k > max {
		return nil, fmt.Errorf("serve: k=%d exceeds the %d other vertices", k, max)
	}
	useANN := false
	switch mode {
	case ModeAuto:
		useANN = rt.opts.ANN
	case ModeExact:
	case ModeANN:
		useANN = true
	default:
		return nil, fmt.Errorf("serve: unknown topk mode %q (want exact or ann)", mode)
	}
	if useANN {
		if ef <= 0 {
			ef = rt.opts.ANNEf
		}
		if ef < k {
			ef = k
		}
		if ef >= total-1 || k >= total-1 {
			useANN = false
		}
	}
	if !useANN {
		ef = 0
	}

	// Snapshot the down set once: the probe loop and the degraded flag
	// must agree on which shards were skipped.
	live := make([]bool, len(rt.engines))
	anyDown := false
	for i := range rt.engines {
		live[i] = !rt.down[i].Load()
		anyDown = anyDown || !live[i]
	}

	key := topkKey{version: st.Version, id: id, k: k, ann: useANN, ef: ef}
	if !anyDown {
		rt.cacheMu.Lock()
		if hit, ok := rt.cache[key]; ok {
			rt.cacheMu.Unlock()
			return hit, nil
		}
		rt.cacheMu.Unlock()
	}

	nbs := make([][]Neighbor, len(rt.engines))
	var wg sync.WaitGroup
	errs := make([]error, len(rt.engines))
	for s := range rt.engines {
		if !live[s] {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			nbs[s], _, errs[s] = rt.engines[s].shardTopK(q, qn, id, k, useANN, ef)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	final := newTopKList(k)
	for _, part := range nbs {
		for _, nb := range part {
			final.Offer(int32(nb.ID), nb.Score)
		}
	}
	modeStr := ModeExact
	if useANN {
		modeStr = ModeANN
	}
	if anyDown {
		rt.degraded.Inc()
	}
	res := &TopKResult{
		Version:      st.Version,
		ModelVersion: st.ModelVersion,
		ID:           id,
		K:            k,
		Mode:         modeStr,
		Ef:           ef,
		Degraded:     anyDown,
		Neighbors:    final.items(),
	}
	if !anyDown {
		rt.cacheMu.Lock()
		if len(rt.cache) < rt.opts.TopKCache {
			rt.cache[key] = res
		}
		rt.cacheMu.Unlock()
	}
	return res, nil
}

// shardEndpoints enumerates the shard-operations routes a Router adds
// on top of the per-model endpoints. Like perModelEndpoints, the
// table is the single source both the handlers and the documented
// route list derive from.
var shardEndpoints = []RouteDoc{
	{"GET", "/shards"},
	{"POST", "/shards/{i}/stop"},
	{"POST", "/shards/{i}/start"},
}

// ServeHTTP implements the single-server HTTP surface plus the shard
// operations. Paths are hand-routed (the module targets pre-1.22
// ServeMux, which has no wildcard patterns); every request runs under
// the obs middleware, with shard-operation paths normalized to their
// documented patterns so a shard index can never mint a label value.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	endpoint, h := rt.route(stripV1(r.URL.Path))
	rt.inst.serve(endpoint, h, w, r)
}

// route resolves a path to its handler and bounded endpoint label.
func (rt *Router) route(path string) (string, http.HandlerFunc) {
	switch path {
	case "/embed":
		return "/embed", rt.handleEmbed
	case "/predict":
		return "/predict", rt.handlePredict
	case "/topk":
		return "/topk", rt.handleTopK
	case "/healthz":
		return "/healthz", rt.handleHealthz
	case "/metrics":
		return "/metrics", rt.handleMetrics
	case "/reload":
		return "/reload", rt.handleReload
	case "/shards":
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

// instruments exposes the router's obs middleware to the registry.
func (rt *Router) instruments() *modelMetrics { return rt.inst }

// handleMetrics serves the model-scoped Prometheus rows (including
// the per-shard series, which carry this model's label).
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rt.inst.handleMetrics(w, r)
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
	res, n, err := rt.embed(ctx, ids)
	if err != nil {
		writeQueryErr(w, r, err)
		return
	}
	annotFanout(r.Context(), n)
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
	res, n, err := rt.predict(ctx, ids)
	if err != nil {
		writeQueryErr(w, r, err)
		return
	}
	annotFanout(r.Context(), n)
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
	annotFanout(r.Context(), live)
	writeTopKRes(w, r, res)
}

// shardState is one shard's entry in GET /shards and the router's
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

// routerHealth is the sharded /healthz body: the single-server health
// fields plus the fleet view. Status is "ok" (all shards serving),
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

// health assembles the fleet's aggregate health in the single-server
// body shape (the registry's /models listing embeds it verbatim).
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
	// Aggregate the per-shard micro-batcher counts so the sharded
	// health body reports the same batching fields a single-process
	// deployment does (parity is test-enforced).
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

// modelInfo reports the registry-facing configuration summary.
func (rt *Router) modelInfo() modelInfo {
	rt.artMu.Lock()
	base := rt.artBase
	rt.artMu.Unlock()
	info := modelInfo{
		artifact:   base,
		annDefault: rt.opts.ANN,
		index:      "none",
		shards:     len(rt.engines),
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

// handleReload mirrors the single-server /reload contract on the
// fleet: {"path": …} loads a new checkpoint, {"artifact": base}
// retargets every shard's warm-start source to its ShardPath under
// the new base ("" disables warm starts fleet-wide) before the load,
// and a failed load rolls every retarget back — all-or-nothing, so
// shard warm sources can never point at mixed bases.
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
	// Aggregate the fleet's warm outcome: warm only when every shard
	// warmed, with the first shard's note explaining a fallback.
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

// setArtifactBase retargets the fleet-wide artifact base: every shard
// engine's warm-start source becomes its ShardPath under base.
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
