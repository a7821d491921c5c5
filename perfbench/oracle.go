package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"gsgcn/internal/ann"
	"gsgcn/internal/artifact"
	"gsgcn/internal/core"
	"gsgcn/internal/datasets"
	"gsgcn/internal/mat"
	"gsgcn/internal/partition"
	"gsgcn/internal/serve"
)

// answerer is the in-process query surface shared by the unsharded
// engine and the sharded router.
type answerer interface {
	Embed(ids []int) (*serve.EmbedResult, error)
	Predict(ids []int) (*serve.PredictResult, error)
	TopKWith(id, k int, mode string, ef int) (*serve.TopKResult, error)
}

// snapshot is one served checkpoint with its in-process oracle: the
// same server code, warm-started from the same artifacts, answers
// every verified request for the model version it reports.
type snapshot struct {
	ckpt, art    string // checkpoint path, artifact base path
	model        *core.Model
	modelVersion uint64
	shards       []*artifact.Snapshot
	full         *mat.Dense // whole-graph embedding table
	norms        []float64
	ans          answerer
	handler      http.Handler // the same answerer's HTTP surface
	load         func() (uint64, error)
}

// serveOptions are the serving options the server runs with.
func serveOptions(w workload, workers int) serve.Options {
	return serve.Options{Workers: workers, ANN: w.ann}
}

// buildSnapshot writes the per-shard artifacts of one checkpoint
// (what gsgcn-index -shards produces) and stands up the in-process
// oracle over them.
func buildSnapshot(w workload, ds *datasets.Dataset, ckpt, art string, seed uint64, withIndex bool, workers int) (*snapshot, error) {
	m, err := core.LoadModelFile(ckpt)
	if err != nil {
		return nil, err
	}
	opts := serveOptions(w, workers)
	snaps, err := serve.BuildShardSnapshots(ds, m, opts, withIndex, w.shards, shardSeed(seed))
	if err != nil {
		return nil, err
	}
	for i, s := range snaps {
		path := art
		if w.shards > 1 {
			path = artifact.ShardPath(art, i, w.shards)
		}
		if _, err := artifact.WriteFile(path, s); err != nil {
			return nil, fmt.Errorf("writing artifact: %w", err)
		}
	}
	sn := &snapshot{ckpt: ckpt, art: art, model: m, modelVersion: m.ModelVersion, shards: snaps}
	sn.full, sn.norms = wholeTable(ds.G.NumVertices(), snaps, w.shards, shardSeed(seed))

	opts.ArtifactPath = art
	if w.shards > 1 {
		rt, err := serve.NewRouter(ds, opts, w.shards, shardSeed(seed))
		if err != nil {
			return nil, err
		}
		sn.ans, sn.handler = rt, rt
		sn.load = func() (uint64, error) { return rt.Load(ckpt) }
	} else {
		srv := serve.NewServer(ds, opts)
		sn.ans, sn.handler = srv.Engine(), srv
		sn.load = func() (uint64, error) { return srv.Load(ckpt) }
	}
	if _, err := sn.load(); err != nil {
		return nil, err
	}
	return sn, nil
}

// wholeTable reassembles the full embedding table and norms from the
// shard artifacts (rows are stored in ascending owned-id order).
func wholeTable(n int, snaps []*artifact.Snapshot, shards int, seed uint64) (*mat.Dense, []float64) {
	if shards <= 1 {
		return snaps[0].Emb, snaps[0].Norms
	}
	dim := snaps[0].Emb.Cols
	full := mat.New(n, dim)
	norms := make([]float64, n)
	sm := partition.ShardMap{Shards: shards, Seed: seed}
	for s, snap := range snaps {
		for r, v := range sm.Owned(n, s) {
			copy(full.Row(int(v)), snap.Emb.Row(r))
			norms[v] = snap.Norms[r]
		}
	}
	return full, norms
}

// decodeAnswer turns a kept answer (JSON bytes or a typed result)
// into a typed result.
func decodeAnswer(kind int, a any) (any, error) {
	raw, ok := a.([]byte)
	if !ok {
		return a, nil
	}
	var v any
	switch kind {
	case opEmbed:
		v = &serve.EmbedResult{}
	case opPredict:
		v = &serve.PredictResult{}
	default:
		v = &serve.TopKResult{}
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return nil, err
	}
	return v, nil
}

// verifier checks kept answers against the snapshot each reports and
// measures top-K recall against the brute-force scanner.
type verifier struct {
	w      workload
	snaps  map[uint64]*snapshot
	recall []float64
	exact  map[[2]uint64][]ann.Candidate
}

func newVerifier(w workload, snaps ...*snapshot) *verifier {
	v := &verifier{w: w, snaps: map[uint64]*snapshot{}, exact: map[[2]uint64][]ann.Candidate{}}
	for _, s := range snaps {
		v.snaps[s.modelVersion] = s
	}
	return v
}

// maxRecallQueries bounds the brute-force scans per run.
const maxRecallQueries = 400

// check verifies one answer; a non-nil error is a mismatch.
func (v *verifier) check(o *op, a any) error {
	res, err := decodeAnswer(o.kind, a)
	if err != nil {
		return fmt.Errorf("undecodable answer: %w", err)
	}
	switch got := res.(type) {
	case *serve.EmbedResult:
		sn, err := v.snapshot(got.ModelVersion)
		if err != nil {
			return err
		}
		want, err := sn.ans.Embed(o.ids)
		if err != nil {
			return err
		}
		if got.Dim != want.Dim || !equalInts(got.IDs, want.IDs) || !equalRows(got.Vectors, want.Vectors) {
			return fmt.Errorf("embed %v for model_version %d differs from the oracle%s", o.ids, got.ModelVersion,
				v.rowSources(got.Vectors, func(sn *snapshot) [][]float64 {
					r, _ := sn.ans.Embed(o.ids)
					return r.Vectors
				}))
		}
	case *serve.PredictResult:
		sn, err := v.snapshot(got.ModelVersion)
		if err != nil {
			return err
		}
		want, err := sn.ans.Predict(o.ids)
		if err != nil {
			return err
		}
		if got.Classes != want.Classes || got.MultiLabel != want.MultiLabel || !equalInts(got.IDs, want.IDs) ||
			!equalRows(got.Probs, want.Probs) || len(got.Labels) != len(want.Labels) {
			return fmt.Errorf("predict %v for model_version %d differs from the oracle%s", o.ids, got.ModelVersion,
				v.rowSources(got.Probs, func(sn *snapshot) [][]float64 {
					r, _ := sn.ans.Predict(o.ids)
					return r.Probs
				}))
		}
		for i := range got.Labels {
			if !equalInts(got.Labels[i], want.Labels[i]) {
				return fmt.Errorf("predict %v labels differ from the oracle", o.ids)
			}
		}
	case *serve.TopKResult:
		return v.checkTopK(o, got)
	default:
		return fmt.Errorf("unexpected answer type %T", res)
	}
	return nil
}

func (v *verifier) checkTopK(o *op, got *serve.TopKResult) error {
	sn, err := v.snapshot(got.ModelVersion)
	if err != nil {
		return err
	}
	want, err := sn.ans.TopKWith(o.id, topK, o.mode, efFor(o.mode))
	if err != nil {
		return err
	}
	if got.ID != want.ID || got.K != want.K || got.Mode != want.Mode || got.Ef != want.Ef ||
		got.Degraded != want.Degraded || len(got.Neighbors) != len(want.Neighbors) {
		return fmt.Errorf("topk %d (%s) header differs from the oracle", o.id, o.mode)
	}
	q := sn.full.Row(o.id)
	qn := sn.norms[o.id]
	for i, nb := range got.Neighbors {
		w := want.Neighbors[i]
		if nb.ID != w.ID || math.Float64bits(nb.Score) != math.Float64bits(w.Score) {
			return fmt.Errorf("topk %d (%s) neighbor %d differs from the oracle", o.id, o.mode, i)
		}
		// Every served score, ANN included, is the exact cosine.
		exact := 0.0
		if d := qn * sn.norms[nb.ID]; d > 0 {
			exact = mat.Dot(q, sn.full.Row(nb.ID)) / d
		}
		if math.Float64bits(nb.Score) != math.Float64bits(exact) {
			return fmt.Errorf("topk %d (%s) score for %d is not the exact cosine", o.id, o.mode, nb.ID)
		}
	}
	// Recall is measured on the ANN answers, or on the exact ones for
	// a workload that sends none.
	if (v.w.annShare > 0) != (o.mode == serve.ModeANN) {
		return nil
	}
	key := [2]uint64{sn.modelVersion, uint64(o.id)}
	ref, ok := v.exact[key]
	if !ok {
		if len(v.exact) >= maxRecallQueries {
			return nil
		}
		ref = ann.ExactTopK(sn.full, sn.norms, q, qn, topK, int32(o.id))
		v.exact[key] = ref
	}
	in := map[int]bool{}
	for _, c := range ref {
		in[int(c.ID)] = true
	}
	hits := 0
	for _, nb := range got.Neighbors {
		if in[nb.ID] {
			hits++
		}
	}
	if len(ref) > 0 {
		v.recall = append(v.recall, float64(hits)/float64(len(ref)))
	}
	return nil
}

// rowSources explains a mismatched multi-row answer: for each row, the
// model version whose oracle answer holds exactly that row (0 when
// none does). Rows from two versions in one answer mean the answer
// was assembled across a reload.
func (v *verifier) rowSources(rows [][]float64, answer func(*snapshot) [][]float64) string {
	src := make([]uint64, len(rows))
	for mv, sn := range v.snaps {
		want := answer(sn)
		for i := range rows {
			if i < len(want) && equalRows(rows[i:i+1], want[i:i+1]) {
				src[i] = mv
			}
		}
	}
	return fmt.Sprintf("; its rows match model versions %v", src)
}

func (v *verifier) snapshot(modelVersion uint64) (*snapshot, error) {
	sn, ok := v.snaps[modelVersion]
	if !ok {
		return nil, fmt.Errorf("answer reports unknown model_version %d", modelVersion)
	}
	return sn, nil
}

// verifyAll checks every kept answer, marking mismatches on outs.
func (v *verifier) verifyAll(ops []op, outs []outcome) (checked, mismatched int) {
	for i := range outs {
		o := &outs[i]
		if o.err != nil || o.answer == nil {
			continue
		}
		checked++
		if err := v.check(&ops[i], o.answer); err != nil {
			if mismatched == 0 {
				logf("oracle: %v", err)
			}
			o.mismatch = true
			mismatched++
		}
		o.answer = nil
	}
	return checked, mismatched
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}
