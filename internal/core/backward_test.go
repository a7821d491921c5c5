package core

import (
	"fmt"
	"math"
	"testing"

	"gsgcn/internal/mat"
	"gsgcn/internal/rng"
)

// TestBackwardMatchesFullChain: Model.Backward runs the first layer
// params-only, and must leave every parameter gradient bit-identical
// to the full chain of Layers[i].Backward calls, which also computes
// the unused input gradient.
func TestBackwardMatchesFullChain(t *testing.T) {
	ds := tinyDataset(t, false)
	mask := make([]int, ds.G.NumVertices())
	for i := range mask {
		mask[i] = i
	}
	for _, agg := range []string{"mean", "sym", "sum"} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", agg, workers), func(t *testing.T) {
				cfg := tinyConfig()
				cfg.Layers = 3
				cfg.Aggregator = agg
				cfg.Workers = workers
				cfg.DropRate = 0.3
				m := NewModel(ds, cfg)
				ctx := m.ctxFor(ds.G, ds.FeatureDim(), nil)
				ctx.Train, ctx.DropRate, ctx.Rng = true, cfg.DropRate, rng.New(9)
				logits := m.Forward(ctx, ds.Features)
				dLogits := mat.New(logits.Rows, logits.Cols)
				m.Loss.Eval(logits, ds.Labels, mask, dLogits)

				m.ZeroGrad()
				m.Backward(ctx, dLogits)
				got := gradSnapshot(m)

				m.ZeroGrad()
				d := m.Head.Backward(ctx, dLogits)
				for i := len(m.Layers) - 1; i >= 0; i-- {
					d = m.Layers[i].Backward(ctx, d)
				}
				want := gradSnapshot(m)

				for p := range want {
					for i := range want[p] {
						if math.Float64bits(got[p][i]) != math.Float64bits(want[p][i]) {
							t.Fatalf("param %d element %d: %v != %v", p, i, got[p][i], want[p][i])
						}
					}
				}
				if first := want[0]; mat.FromData(1, len(first), first).FrobeniusNorm() == 0 {
					t.Fatal("degenerate case: layer 1 gradient is zero")
				}
			})
		}
	}
}

func gradSnapshot(m *Model) [][]float64 {
	var out [][]float64
	for _, p := range m.Params() {
		out = append(out, append([]float64(nil), p.Grad.Data...))
	}
	return out
}
