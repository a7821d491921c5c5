package ann

import (
	"math"
	"sort"

	"gsgcn/internal/mat"
	"gsgcn/internal/perf"
)

// scanChunk is the row block a scan worker scores per dots call —
// large enough to amortize the call, small enough to stay in cache.
const scanChunk = 1024

// ScanExact is the exact flat scan: the k best rows of emb by cosine
// against q (excluding row exclude, -1 = none), best-first under the
// Before order. Each score is the very arithmetic of ExactTopK, so the
// two agree bit for bit; the answer is identical at every workers
// setting.
func ScanExact(emb mat.RowSource, norms []float64, q []float64, qn float64, k int, exclude int32, workers int) []Candidate {
	return scan(emb.NumRows(), norms, qn, k, exclude, workers, func(lo, hi int, out []float64) {
		for r := lo; r < hi; r++ {
			out[r-lo] = mat.Dot(q, emb.Row(r))
		}
	})
}

// scan is the one worker-sharded bounded scan behind ScanExact and
// ScanQuant. Rows [0, n) split into one contiguous range per worker;
// dots fills out[i] with row lo+i's dot against the query, which scan
// divides by qn*norms[r] (0 when that is not positive). Each range
// keeps its k best in a bounded heap and Merge selects across ranges:
// top-k under a total order does not depend on the decomposition.
func scan(n int, norms []float64, qn float64, k int, exclude int32, workers int, dots func(lo, hi int, out []float64)) []Candidate {
	if k < 1 || n == 0 {
		return nil
	}
	shards := max(1, min(workers, n))
	parts := make([][]Candidate, shards)
	perf.Parallel(shards, workers, func(_, slo, shi int) {
		var buf [scanChunk]float64
		for s := slo; s < shi; s++ {
			lo, hi := s*n/shards, (s+1)*n/shards
			h := newHeap(false) // worst-ranked at root: the eviction point
			for blk := lo; blk < hi; blk += scanChunk {
				end := min(blk+scanChunk, hi)
				dots(blk, end, buf[:end-blk])
				for r := blk; r < end; r++ {
					if int32(r) == exclude {
						continue
					}
					score := 0.0
					if d := qn * norms[r]; d > 0 {
						score = buf[r-blk] / d
					}
					offerBounded(h, Candidate{ID: int32(r), Score: score}, k)
				}
			}
			parts[s] = h.drain()
		}
	})
	return Merge(k, parts...)
}

// Merge selects the k best candidates of several lists with distinct
// ids, best-first under the Before order — the last step of a scan and
// of a scatter over shards alike. NaN scores are dropped.
func Merge(k int, lists ...[]Candidate) []Candidate {
	h := newHeap(false)
	for _, l := range lists {
		for _, c := range l {
			offerBounded(h, c, k)
		}
	}
	out := h.drain()
	sortBest(out)
	return out
}

// offerBounded keeps h bounded to the cap best candidates under the
// Before order (h must be a worst-at-root heap). A NaN score is
// rejected: Before is not an order once NaN is in play, and a
// similarity that is not a number ranks nothing.
func offerBounded(h *heap, c Candidate, cap int) {
	if math.IsNaN(c.Score) || cap < 1 {
		return
	}
	if h.len() < cap {
		h.push(c)
		return
	}
	if w := h.peek(); Before(c.Score, c.ID, w.Score, w.ID) {
		h.pop()
		h.push(c)
	}
}

// sortBest sorts candidates best-first under the Before order.
func sortBest(cs []Candidate) {
	sort.Slice(cs, func(i, j int) bool {
		return Before(cs[i].Score, cs[i].ID, cs[j].Score, cs[j].ID)
	})
}
