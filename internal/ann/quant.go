package ann

import (
	"math"

	"gsgcn/internal/mat"
)

// This file is the quantized ANN path: a flat scan over a compact
// table (float32 or int8-PQ codes) that produces a candidate beam,
// and the exact rerank that rescores the beam from float64 rows. The
// two compose into the serving layer's ANN mode for non-f64 dtypes:
// recall is bounded by the beam width exactly as with HNSW, while
// every reported score is bit-identical to the exact scanner's score
// for that row — quantization can change *which* rows are answered,
// never what score a row is answered with.

// ScanQuant scans the quantized table and returns the ef best rows
// by approximate cosine (approximate dot over qn*norms[r], the same
// normalization as the exact scan), excluding row id exclude (-1 =
// none), best-first under the Before order. It is the one bounded
// scan over the table's own Scores, so the beam is bit-identical at
// every workers setting.
func ScanQuant(qt mat.Quantized, norms []float64, q []float64, qn float64, ef int, exclude int32, workers int) []Candidate {
	return scan(qt.NumRows(), norms, qn, ef, exclude, workers, qt.Query(q).Scores)
}

// RerankExact rescores a candidate beam with the exact float64
// cosine — the very arithmetic of the exact scanner, so each returned
// score is bit-identical to what an exact scan would report for that
// row — and returns the k best under the Before order. Rows whose
// exact score is NaN are dropped.
func RerankExact(emb mat.RowSource, norms []float64, q []float64, qn float64, beam []Candidate, k int) []Candidate {
	if k < 1 || len(beam) == 0 {
		return nil
	}
	out := make([]Candidate, 0, len(beam))
	for _, c := range beam {
		score := 0.0
		if d := qn * norms[c.ID]; d > 0 {
			score = mat.Dot(q, emb.Row(int(c.ID))) / d
		}
		if !math.IsNaN(score) {
			out = append(out, Candidate{ID: c.ID, Score: score})
		}
	}
	sortBest(out)
	return out[:min(k, len(out))]
}
