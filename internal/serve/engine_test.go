package serve

import (
	"math"
	"sort"
	"testing"

	"gsgcn/internal/core"
	"gsgcn/internal/datasets"
	"gsgcn/internal/graph"
	"gsgcn/internal/mat"
	"gsgcn/internal/nn"
)

func testDataset(tb testing.TB, multi bool) *datasets.Dataset {
	tb.Helper()
	return datasets.Generate(datasets.Config{
		Name: "serve-test", Vertices: 300, TargetEdges: 2400,
		FeatureDim: 12, NumClasses: 4, MultiLabel: multi,
		Homophily: 0.8, NoiseStd: 0.5, Seed: 11,
	})
}

func testModel(tb testing.TB, ds *datasets.Dataset, layers int, agg string) *core.Model {
	tb.Helper()
	return core.NewModel(ds, core.Config{
		Layers: layers, Hidden: 8, Workers: 1, Seed: 17, Aggregator: agg,
	})
}

// naiveEmbeddings is the dense reference: plain per-vertex loops with
// the same accumulation orders as the training kernels (neighbors in
// adjacency order, GEMM terms in k order), no parallelism, no
// blocking.
func naiveEmbeddings(m *core.Model, g *graph.CSR, feats *mat.Dense) *mat.Dense {
	cur := feats
	for _, l := range m.Layers {
		in, out := l.InDim, l.OutDim
		var invSqrt []float64
		if l.Agg == nn.AggSym {
			invSqrt = make([]float64, g.N)
			for v := 0; v < g.N; v++ {
				if d := g.Degree(int32(v)); d > 0 {
					invSqrt[v] = 1 / math.Sqrt(float64(d))
				}
			}
		}
		next := mat.New(g.N, 2*out)
		agg := make([]float64, in)
		for v := 0; v < g.N; v++ {
			for j := range agg {
				agg[j] = 0
			}
			nb := g.Neighbors(int32(v))
			switch l.Agg {
			case nn.AggMean:
				for _, u := range nb {
					for j, x := range cur.Row(int(u)) {
						agg[j] += x
					}
				}
				if len(nb) > 0 {
					inv := 1 / float64(len(nb))
					for j := range agg {
						agg[j] *= inv
					}
				}
			case nn.AggSym:
				for _, u := range nb {
					w := invSqrt[v] * invSqrt[u]
					for j, x := range cur.Row(int(u)) {
						agg[j] += w * x
					}
				}
			case nn.AggSum:
				for _, u := range nb {
					for j, x := range cur.Row(int(u)) {
						agg[j] += x
					}
				}
			}
			drow := next.Row(v)
			hrow := cur.Row(v)
			// z_self then z_neigh, accumulating over k in order with
			// the same zero-skip as mat.Mul's axpy loop.
			for k := 0; k < in; k++ {
				if av := hrow[k]; av != 0 {
					wrow := l.WSelf.W.Row(k)
					for j := 0; j < out; j++ {
						drow[j] += av * wrow[j]
					}
				}
			}
			for k := 0; k < in; k++ {
				if av := agg[k]; av != 0 {
					wrow := l.WNeigh.W.Row(k)
					for j := 0; j < out; j++ {
						drow[out+j] += av * wrow[j]
					}
				}
			}
			if l.Activate {
				for j, x := range drow {
					if !(x > 0) {
						drow[j] = 0
					}
				}
			}
		}
		cur = next
	}
	return cur
}

// TestFullEmbeddingsMatchesNaive checks the engine's block-streamed
// layer-wise forward pass against the naive dense reference,
// bit-for-bit, at every Workers and BlockSize combination — and for
// every aggregator and a deeper stack.
func TestFullEmbeddingsMatchesNaive(t *testing.T) {
	ds := testDataset(t, false)
	cases := []struct {
		name   string
		layers int
		agg    string
	}{
		{"mean-2layer", 2, "mean"},
		{"sym-2layer", 2, "sym"},
		{"sum-2layer", 2, "sum"},
		{"mean-3layer", 3, "mean"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := testModel(t, ds, tc.layers, tc.agg)
			want := naiveEmbeddings(m, ds.G, ds.Features)
			for _, workers := range []int{1, 2, 3, 8} {
				for _, block := range []int{1, 7, 64, 1000} {
					got := FullEmbeddings(m, ds.G, ds.Features, workers, block)
					if got.Rows != want.Rows || got.Cols != want.Cols {
						t.Fatalf("workers=%d block=%d: shape %dx%d, want %dx%d",
							workers, block, got.Rows, got.Cols, want.Rows, want.Cols)
					}
					if !got.Equal(want, 0) {
						t.Fatalf("workers=%d block=%d: embeddings differ from naive reference (max diff %g)",
							workers, block, got.MaxAbsDiff(want))
					}
				}
			}
		})
	}
}

// TestEngineMatchesTrainingForward checks that serving logits (engine
// embeddings + head) are bit-identical to the training engine's own
// full-graph forward pass.
func TestEngineMatchesTrainingForward(t *testing.T) {
	ds := testDataset(t, false)
	m := testModel(t, ds, 2, "mean")
	ctx := m.CtxForGraph(ds.G, ds.FeatureDim(), nil)
	want := m.Forward(ctx, ds.Features)

	eng := NewEngine(ds, Options{Workers: 3, BlockSize: 33})
	if _, err := eng.Install(m); err != nil {
		t.Fatal(err)
	}
	st, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got := headLogits(st, st.Emb.(*mat.Dense))
	if !got.Equal(want, 0) {
		t.Fatalf("serving logits differ from training forward pass (max diff %g)", got.MaxAbsDiff(want))
	}
}

func TestEngineEmbedAndPredict(t *testing.T) {
	for _, multi := range []bool{false, true} {
		ds := testDataset(t, multi)
		m := testModel(t, ds, 2, "mean")
		eng := NewEngine(ds, Options{Workers: 2})
		if _, err := eng.Install(m); err != nil {
			t.Fatal(err)
		}

		ids := []int{0, 5, 299}
		emb, err := eng.Embed(ids)
		if err != nil {
			t.Fatal(err)
		}
		if emb.Dim != m.Layers[len(m.Layers)-1].OutWidth() {
			t.Errorf("embed dim = %d, want %d", emb.Dim, m.Layers[1].OutWidth())
		}
		if len(emb.Vectors) != 3 || len(emb.Vectors[0]) != emb.Dim {
			t.Fatalf("embed shapes: %d vectors of %d", len(emb.Vectors), len(emb.Vectors[0]))
		}
		st, _ := eng.Snapshot()
		for i, id := range ids {
			for j, x := range emb.Vectors[i] {
				if x != st.Emb.Row(id)[j] {
					t.Fatalf("vector %d element %d differs from table", i, j)
				}
			}
		}

		pred, err := eng.Predict(ids)
		if err != nil {
			t.Fatal(err)
		}
		if pred.Classes != ds.NumClasses || pred.MultiLabel != multi {
			t.Fatalf("predict meta = %+v", pred)
		}
		// Labels must match the training-side prediction rule applied
		// to the full-graph logits.
		logits := headLogits(st, st.Emb.(*mat.Dense))
		var ref *mat.Dense
		if multi {
			ref = nn.PredictMulti(logits)
		} else {
			ref = nn.PredictSingle(logits)
		}
		for i, id := range ids {
			want := []int{}
			for c := 0; c < ds.NumClasses; c++ {
				if ref.At(id, c) == 1 {
					want = append(want, c)
				}
			}
			got := pred.Labels[i]
			if len(got) != len(want) {
				t.Fatalf("vertex %d labels = %v, want %v", id, got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("vertex %d labels = %v, want %v", id, got, want)
				}
			}
			if len(pred.Probs[i]) != ds.NumClasses {
				t.Fatalf("vertex %d has %d probs", id, len(pred.Probs[i]))
			}
			for _, p := range pred.Probs[i] {
				if p < 0 || p > 1 || math.IsNaN(p) {
					t.Fatalf("vertex %d prob %v out of range", id, p)
				}
			}
		}
	}
}

func TestEngineErrors(t *testing.T) {
	ds := testDataset(t, false)
	eng := NewEngine(ds, Options{})
	if _, err := eng.Embed([]int{0}); err == nil {
		t.Error("Embed before Install should fail")
	}
	m := testModel(t, ds, 2, "mean")
	if _, err := eng.Install(m); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Embed([]int{-1}); err == nil {
		t.Error("negative id should fail")
	}
	if _, err := eng.Embed([]int{300}); err == nil {
		t.Error("out-of-range id should fail")
	}
	if _, err := eng.Embed(nil); err == nil {
		t.Error("empty ids should fail")
	}
	if _, err := eng.TopK(0, 0); err == nil {
		t.Error("k=0 should fail")
	}

	// A model shaped for a different dataset must be rejected.
	other := datasets.Generate(datasets.Config{
		Name: "other", Vertices: 100, TargetEdges: 400,
		FeatureDim: 7, NumClasses: 3, Seed: 5,
	})
	if _, err := eng.Install(testModel(t, other, 2, "mean")); err == nil {
		t.Error("installing a mismatched model should fail")
	}
}

// TestTopKMatchesBruteForce verifies the worker-sharded exact scan
// against a full sort, at several worker counts, and checks that the
// query node itself is excluded.
func TestTopKMatchesBruteForce(t *testing.T) {
	ds := testDataset(t, false)
	m := testModel(t, ds, 2, "mean")
	for _, workers := range []int{1, 2, 5} {
		eng := NewEngine(ds, Options{Workers: workers})
		if _, err := eng.Install(m); err != nil {
			t.Fatal(err)
		}
		st, _ := eng.Snapshot()
		for _, q := range []int{0, 17, 299} {
			for _, k := range []int{1, 5, 50} {
				got, err := eng.TopK(q, k)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteTopK(st, q, k)
				if len(got.Neighbors) != len(want) {
					t.Fatalf("workers=%d q=%d k=%d: %d neighbors, want %d",
						workers, q, k, len(got.Neighbors), len(want))
				}
				for i := range want {
					if got.Neighbors[i] != want[i] {
						t.Fatalf("workers=%d q=%d k=%d rank %d: got %+v, want %+v",
							workers, q, k, i, got.Neighbors[i], want[i])
					}
				}
				for _, nb := range got.Neighbors {
					if nb.ID == q {
						t.Fatalf("query vertex %d in its own neighbor list", q)
					}
				}
			}
		}
	}
}

func bruteTopK(st *State, q, k int) []Neighbor {
	var all []Neighbor
	qrow := st.Emb.Row(q)
	for v := 0; v < st.Emb.NumRows(); v++ {
		if v == q {
			continue
		}
		score := 0.0
		if d := st.norms[q] * st.norms[v]; d > 0 {
			score = mat.Dot(qrow, st.Emb.Row(v)) / d
		}
		all = append(all, Neighbor{ID: v, Score: score})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// TestTopKCacheVersioning checks that top-K answers are memoized per
// snapshot and invalidated when a new model is installed.
func TestTopKCacheVersioning(t *testing.T) {
	ds := testDataset(t, false)
	eng := NewEngine(ds, Options{Workers: 2})
	if _, err := eng.Install(testModel(t, ds, 2, "mean")); err != nil {
		t.Fatal(err)
	}
	a, err := eng.TopK(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.TopK(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second identical query did not hit the cache")
	}
	if a.Version != 1 {
		t.Errorf("first snapshot version = %d, want 1", a.Version)
	}

	// New snapshot: cache entries from version 1 must not be served.
	m2 := core.NewModel(ds, core.Config{Layers: 2, Hidden: 8, Workers: 1, Seed: 99})
	if _, err := eng.Install(m2); err != nil {
		t.Fatal(err)
	}
	c, err := eng.TopK(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("stale cached result served after reload")
	}
	if c.Version != 2 {
		t.Errorf("post-reload version = %d, want 2", c.Version)
	}
	eng.cache.mu.Lock()
	for key := range eng.cache.m {
		if key.version != 2 {
			t.Errorf("stale cache key %+v survived reload", key)
		}
	}
	eng.cache.mu.Unlock()
}
