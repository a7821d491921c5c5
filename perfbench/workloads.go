package main

import "time"

// workload is one seeded pipeline: a dataset preset, the training
// half's configuration and the serving half's traffic.
type workload struct {
	name string

	// Training half.
	preset string
	scale  float64
	hidden int
	// epochs is the fixed epoch count behind final_loss and the two
	// served checkpoints (after epochs-1 and after epochs). Timing
	// epochs continue past it until the training share of --seconds
	// is spent; they only add epoch_s samples.
	epochs int

	// Serving half.
	transport string // "json" (HTTP/JSON) or "tcp" (pipelined wire frames)
	shards    int    // 1 = one unsharded model, >1 = scatter-gather router
	ann       bool   // server -ann: HNSW answers topk by default
	warm      bool   // warm-start from per-shard artifacts instead of a cold full compute
	// rate is the fixed offered rate (requests/s) of the fixed-rate and
	// reload phases, and the traced run's first ramp step.
	rate float64
	// mix is the embed:predict:topk weight.
	mix [3]int
	// annShare is the share of topk requests sent with mode=ann; the
	// rest ask for mode=exact.
	annShare float64
	zipfS    float64 // 0 = uniform ids, else Zipf(s) over a seeded permutation
	// reloadEvery spaces the /reload calls of the reload phase.
	reloadEvery time.Duration
}

// Traffic settings both workloads share.
const (
	maxIDs    = 8   // ids per embed/predict request: uniform in [1, maxIDs]
	topK      = 10  // k of every top-K request
	annEf     = 64  // ef of every mode=ann request (the server default)
	loadConns = 2   // load connections, each <= nproc on the 2-core host
	inflight  = 256 // requests the tcp generator may have outstanding
	// The traced run's ramp: step i offers rate*rampGrid^i (eight steps
	// per doubling). It visits every rampCoarse-th step until one fails,
	// then the steps in between; a step must keep p99 within sloMs.
	rampGrid   = 1.0905077326652577 // 2^(1/8)
	rampCoarse = 4
	rampSteps  = 40
	sloMs      = 100
)

// workloads are the benchmark's workloads by name. Rates are offered
// requests per second; every request is timed from its due time.
var workloads = map[string]workload{
	// reddit-json: the reddit preset at scale 0.02 (|V|~4.7k,
	// |E|~100k, 602 features, 41 classes) trained with hidden 128,
	// whose wide features make weight application (mat GEMM) most of a
	// step; then served cold, unsharded, over HTTP/JSON, where 256-wide
	// float JSON bodies make parsing, admission, micro-batching and
	// encoding dominate and ANN, router and artifacts are bypassed.
	"reddit-json": {
		name: "reddit-json", preset: "reddit", scale: 0.02, hidden: 128, epochs: 2,
		transport: "json", shards: 1, ann: false, warm: false,
		rate: 600, mix: [3]int{6, 3, 1}, annShare: 0, zipfS: 0,
		reloadEvery: 300 * time.Millisecond,
	},
	// amazon-tcp: the amazon preset at scale 0.01 (|V|~16k, |E|~550k,
	// heavy-tailed degrees, 200 features, 107 labels) trained with
	// hidden 32, where feature propagation and sampling weigh most;
	// then served as a 2-shard ANN router warm-started from per-shard
	// artifacts over pipelined TCP with Zipf-skewed ids, reloading
	// between two checkpoints between bursts of traffic.
	"amazon-tcp": {
		name: "amazon-tcp", preset: "amazon", scale: 0.01, hidden: 32, epochs: 3,
		transport: "tcp", shards: 2, ann: true, warm: true,
		rate: 1200, mix: [3]int{1, 1, 2}, annShare: 0.75, zipfS: 1.1,
		reloadEvery: 100 * time.Millisecond,
	},
}

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (checked by TestBenchmarkJSONMatches).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, printed with
// --trace 0 on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"epoch_cpu_s", "s", "lower"},
	{"final_loss", "loss", "lower"},
	{"serve_cpu_us_per_req", "us", "lower"},
	{"recall_at_10", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"train_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, printed with --trace 1.
var perLayer = []metricDef{
	{"datasets.read_s", "s", "lower"},
	{"core.setup_s", "s", "lower"},
	{"serve.ready_s", "s", "lower"},
	{"sampler.sample_ms", "ms", "lower"},
	{"sampler.probe_hit", "ratio", "higher"},
	{"sampler.cleanups", "count", "lower"},
	{"graph.induce_ms", "ms", "lower"},
	{"sampler.pool_wait_ms", "ms", "lower"},
	{"nn.featprop_ms", "ms", "lower"},
	{"nn.weight_ms", "ms", "lower"},
	{"nn.l1.fwd_ms", "ms", "lower"},
	{"nn.l1.bwd_ms", "ms", "lower"},
	{"nn.l2.fwd_ms", "ms", "lower"},
	{"nn.l2.bwd_ms", "ms", "lower"},
	{"nn.head.fwd_ms", "ms", "lower"},
	{"nn.head.bwd_ms", "ms", "lower"},
	{"core.step_ms", "ms", "lower"},
	{"core.step_other_ms", "ms", "lower"},
	{"core.alloc_mb_per_step", "MB", "lower"},
	{"core.gc_per_step", "count", "lower"},
	{"core.val_f1", "ratio", "higher"},
	{"partition.propagate_gbs", "GB/s", "higher"},
	{"mat.gemm_gflops", "GFLOP/s", "higher"},
	{"serve.full_embed_s", "s", "lower"},
	{"artifact.read_s", "s", "lower"},
	{"serve.install_s", "s", "lower"},
	{"serve.http_embed_us", "us", "lower"},
	{"serve.engine_embed_us", "us", "lower"},
	{"serve.request_overhead_us", "us", "lower"},
	{"serve.json_body_us", "us", "lower"},
	{"wire.encode_us", "us", "lower"},
	{"wire.decode_us", "us", "lower"},
	{"serve.batch_size", "count", "higher"},
	{"serve.flush_ms", "ms", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.p50_ms", "ms", "lower"},
	{"serve.p99_ms", "ms", "lower"},
	{"serve.max_ok_per_s", "1/s", "higher"},
	{"serve.max_ok_within_slo_per_s", "1/s", "higher"},
	{"serve.topk_exact_us", "us", "lower"},
	{"ann.search_us", "us", "lower"},
	{"serve.router_overhead_us", "us", "lower"},
	{"serve.topk_repeat_share", "ratio", "higher"},
	{"serve.resident_mb", "MB", "lower"},
	{"gen.late_ms_p99", "ms", "lower"},
	{"gen.cpu_share", "ratio", "lower"},
	{"trace.epoch_overhead_pct", "%", "lower"},
	{"trace.p50_overhead_pct", "%", "lower"},
	{"prop.subgraph_vertices", "count", "higher"},
	{"prop.subgraph_avg_degree", "count", "higher"},
	{"prop.ids_per_request", "count", "higher"},
	{"prop.zipf_s", "count", "higher"},
}
