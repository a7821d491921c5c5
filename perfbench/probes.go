package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"gsgcn/internal/artifact"
	"gsgcn/internal/datasets"
	"gsgcn/internal/partition"
	"gsgcn/internal/serve"
	"gsgcn/internal/wire"
)

// probeReps is the number of calls each serving probe times.
const probeReps = 200

// serveProbes times the serving layers in process, on the workload's
// own snapshots and request stream, after the live server has
// stopped: embedding compute, artifact decode and install, the HTTP
// request layer against the engine call beneath it, JSON and wire
// encoding, exact and ANN top-K, and the router's scatter-gather
// overhead over its slowest shard probe.
func serveProbes(w workload, o options, ds *datasets.Dataset, snapA, snapB *snapshot, ops []op, workers int, r *report) error {
	full := medianDuration(2, func(int) { serve.FullEmbeddings(snapB.model, ds.G, ds.Features, workers, 0) })
	r.set("serve.full_embed_s", full.Seconds())

	var reads []float64
	for i := 0; i < w.shards; i++ {
		path := snapB.art
		if w.shards > 1 {
			path = artifact.ShardPath(snapB.art, i, w.shards)
		}
		start := time.Now()
		if _, _, err := artifact.ReadFile(path); err != nil {
			return err
		}
		reads = append(reads, time.Since(start).Seconds())
	}
	r.set("artifact.read_s", median(reads))

	// Warm installs alternate checkpoints; the last one leaves snapB
	// on a fresh version, so its top-K memo starts empty below.
	var installs []float64
	for _, sn := range []*snapshot{snapB, snapA, snapB} {
		start := time.Now()
		if _, err := sn.load(); err != nil {
			return err
		}
		installs = append(installs, time.Since(start).Seconds())
	}
	r.set("serve.install_s", median(installs))

	var embeds []op
	for _, o := range ops {
		if o.kind == opEmbed {
			embeds = append(embeds, o)
		}
	}
	if len(embeds) == 0 {
		return fmt.Errorf("no embed requests to probe")
	}
	pick := func(i int) []int { return embeds[i%len(embeds)].ids }
	httpT := medianDuration(probeReps, func(i int) {
		req := httptest.NewRequest(http.MethodGet, "/embed?ids="+joinInts(pick(i)), nil)
		rec := httptest.NewRecorder()
		snapB.handler.ServeHTTP(rec, req)
	})
	engT := medianDuration(probeReps, func(i int) { _, _ = snapB.ans.Embed(pick(i)) })
	res, err := snapB.ans.Embed(pick(0))
	if err != nil {
		return err
	}
	jsonT := medianDuration(probeReps, func(int) { _, _ = json.Marshal(res) })
	r.set("serve.http_embed_us", us(httpT))
	r.set("serve.engine_embed_us", us(engT))
	r.set("serve.request_overhead_us", us(httpT-engT))
	r.set("serve.json_body_us", us(jsonT))

	// Wire frames of the stream's own answer mix.
	var frames [][]byte
	var msgs []wire.Message
	for i := 0; i < probeReps && i < len(ops); i++ {
		m, err := wireAnswer(w, snapB.ans, &ops[i])
		if err != nil {
			return err
		}
		msgs = append(msgs, m)
	}
	enc := medianDuration(len(msgs), func(i int) {
		f, _ := wire.Encode(msgs[i])
		frames = append(frames, f)
	})
	dec := medianDuration(len(frames), func(i int) { _, _, _ = wire.Decode(frames[i]) })
	r.set("wire.encode_us", us(enc))
	r.set("wire.decode_us", us(dec))

	// Top-K on keys the memo has not seen: a seeded permutation of
	// vertices on the snapshot version installed above.
	rng := rand.New(rand.NewSource(int64(o.seed) + 99))
	ids := rng.Perm(ds.G.NumVertices())[:2*probeReps]
	exactT := medianDuration(probeReps, func(i int) { _, _ = snapB.ans.TopKWith(ids[i], topK, serve.ModeExact, 0) })
	r.set("serve.topk_exact_us", us(exactT))

	// ANN: the router's answer against its slowest shard's HNSW probe.
	sm := partition.ShardMap{Shards: w.shards, Seed: shardSeed(o.seed)}
	owned := make([]map[int32]int32, w.shards)
	for s := range owned {
		owned[s] = map[int32]int32{}
		for row, v := range sm.Owned(ds.G.NumVertices(), s) {
			owned[s][v] = int32(row)
		}
	}
	var searchUs, overheadUs []float64
	for i := probeReps; i < 2*probeReps; i++ {
		id := ids[i]
		q, qn := snapB.full.Row(id), snapB.norms[id]
		slowest := time.Duration(0)
		for s, sh := range snapB.shards {
			if sh.Index == nil {
				return fmt.Errorf("shard %d artifact has no index", s)
			}
			exclude := int32(-1)
			if w.shards > 1 {
				if row, ok := owned[s][int32(id)]; ok {
					exclude = row
				}
			} else {
				exclude = int32(id)
			}
			start := time.Now()
			_ = sh.Index.Search(q, qn, topK, annEf, exclude)
			if d := time.Since(start); d > slowest {
				slowest = d
			}
		}
		start := time.Now()
		if _, err := snapB.ans.TopKWith(id, topK, serve.ModeANN, annEf); err != nil {
			return err
		}
		total := time.Since(start)
		searchUs = append(searchUs, us(slowest))
		overheadUs = append(overheadUs, us(total-slowest))
	}
	r.set("ann.search_us", median(searchUs))
	r.set("serve.router_overhead_us", median(overheadUs))
	return nil
}

// wireAnswer answers o in process and converts it to its response frame.
func wireAnswer(w workload, a answerer, o *op) (wire.Message, error) {
	switch o.kind {
	case opEmbed:
		res, err := a.Embed(o.ids)
		if err != nil {
			return nil, err
		}
		return &wire.EmbedResponse{Version: res.Version, ModelVersion: res.ModelVersion, Dim: res.Dim, IDs: res.IDs, Vectors: res.Vectors}, nil
	case opPredict:
		res, err := a.Predict(o.ids)
		if err != nil {
			return nil, err
		}
		return &wire.PredictResponse{Version: res.Version, ModelVersion: res.ModelVersion, Classes: res.Classes,
			MultiLabel: res.MultiLabel, IDs: res.IDs, Labels: res.Labels, Probs: res.Probs}, nil
	}
	res, err := a.TopKWith(o.id, topK, o.mode, efFor(o.mode))
	if err != nil {
		return nil, err
	}
	mode, _ := wire.ModeByte(res.Mode)
	nbs := make([]wire.Neighbor, len(res.Neighbors))
	for i, n := range res.Neighbors {
		nbs[i] = wire.Neighbor{ID: n.ID, Score: n.Score}
	}
	return &wire.TopKResponse{Version: res.Version, ModelVersion: res.ModelVersion, ID: res.ID, K: res.K,
		Mode: mode, Ef: res.Ef, Degraded: res.Degraded, Neighbors: nbs}, nil
}

func joinInts(xs []int) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.Itoa(x)
	}
	return strings.Join(s, ",")
}
