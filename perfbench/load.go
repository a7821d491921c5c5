package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"gsgcn/internal/serve"
	"gsgcn/pkg/client"
)

// Operation kinds, in mix order.
const (
	opEmbed = iota
	opPredict
	opTopK
)

// op is one generated request.
type op struct {
	kind int
	ids  []int  // embed, predict
	id   int    // topk
	mode string // topk: "exact" or "ann"
	// check marks the seeded sample whose answer the oracle verifies.
	check bool
}

// checkEvery is the oracle's sampling period: one request in
// checkEvery (seeded) has its answer kept and verified.
const checkEvery = 8

// stream generates a workload's request sequence from one seed.
type stream struct {
	w    workload
	n    int // vertices
	r    *rand.Rand
	perm []int
	zipf *rand.Zipf
}

func newStream(w workload, vertices int, seed int64) *stream {
	r := rand.New(rand.NewSource(seed))
	s := &stream{w: w, n: vertices, r: r, perm: r.Perm(vertices)}
	if w.zipfS > 1 {
		s.zipf = rand.NewZipf(r, w.zipfS, 1, uint64(vertices-1))
	}
	return s
}

func (s *stream) vertex() int {
	if s.zipf != nil {
		return s.perm[s.zipf.Uint64()]
	}
	return s.r.Intn(s.n)
}

func (s *stream) ops(count int) []op {
	total := s.w.mix[0] + s.w.mix[1] + s.w.mix[2]
	out := make([]op, count)
	for i := range out {
		o := &out[i]
		pick := s.r.Intn(total)
		switch {
		case pick < s.w.mix[0]:
			o.kind = opEmbed
		case pick < s.w.mix[0]+s.w.mix[1]:
			o.kind = opPredict
		default:
			o.kind = opTopK
		}
		if o.kind == opTopK {
			o.id = s.vertex()
			o.mode = serve.ModeExact
			if s.r.Float64() < s.w.annShare {
				o.mode = serve.ModeANN
			}
		} else {
			o.ids = make([]int, 1+s.r.Intn(maxIDs))
			for j := range o.ids {
				o.ids[j] = s.vertex()
			}
		}
		o.check = s.r.Intn(checkEvery) == 0
	}
	return out
}

// repeatShare is the share of topk requests whose query key was
// already asked earlier in ops: the ceiling on what the server's
// top-K memo can answer without a scan.
func repeatShare(ops []op) float64 {
	seen := map[string]bool{}
	topk, repeats := 0, 0
	for _, o := range ops {
		if o.kind != opTopK {
			continue
		}
		topk++
		key := o.mode + ":" + strconv.Itoa(o.id)
		if seen[key] {
			repeats++
		}
		seen[key] = true
	}
	if topk == 0 {
		return 0
	}
	return float64(repeats) / float64(topk)
}

// meanIDs is the mean ids per embed/predict request.
func meanIDs(ops []op) float64 {
	n, sum := 0, 0
	for _, o := range ops {
		if o.kind != opTopK {
			n++
			sum += len(o.ids)
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// sender issues one request and returns the answer to keep for the
// oracle (nil unless keep is set).
type sender interface {
	send(ctx context.Context, worker int, o *op, keep bool) (any, error)
	close()
}

// jsonSender speaks HTTP/JSON over a bounded pool of keep-alive
// connections. Bodies are read in full; only kept answers are decoded
// (after the phase) so the generator spends little CPU on JSON.
type jsonSender struct {
	base string
	hc   *http.Client
	w    workload
}

func newJSONSender(base string, w workload) *jsonSender {
	tr := &http.Transport{MaxConnsPerHost: loadConns, MaxIdleConnsPerHost: loadConns, DisableCompression: true}
	return &jsonSender{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, w: w}
}

func (j *jsonSender) url(o *op) string {
	var b strings.Builder
	b.WriteString(j.base)
	switch o.kind {
	case opEmbed, opPredict:
		if o.kind == opEmbed {
			b.WriteString("/v1/embed?ids=")
		} else {
			b.WriteString("/v1/predict?ids=")
		}
		for i, id := range o.ids {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(id))
		}
	case opTopK:
		fmt.Fprintf(&b, "/v1/topk?id=%d&k=%d&mode=%s", o.id, topK, o.mode)
		if o.mode == serve.ModeANN {
			fmt.Fprintf(&b, "&ef=%d", annEf)
		}
	}
	return b.String()
}

func (j *jsonSender) send(ctx context.Context, _ int, o *op, keep bool) (any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, j.url(o), nil)
	if err != nil {
		return nil, err
	}
	resp, err := j.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if !keep {
		// Drain without keeping: the generator's own allocations and GC
		// would otherwise show up in the latencies it measures.
		_, err = io.Copy(io.Discard, resp.Body)
		return nil, err
	}
	return io.ReadAll(resp.Body)
}

func (j *jsonSender) close() { j.hc.CloseIdleConnections() }

// tcpSender pipelines wire frames over loadConns persistent
// connections through pkg/client.
type tcpSender struct {
	conns []client.Client
	w     workload
}

func newTCPSender(addr string, w workload) (*tcpSender, error) {
	t := &tcpSender{w: w}
	for i := 0; i < loadConns; i++ {
		c, err := client.New(client.Config{Transport: "tcp", Addr: addr, Timeout: 30 * time.Second})
		if err != nil {
			t.close()
			return nil, err
		}
		t.conns = append(t.conns, c)
	}
	return t, nil
}

func (t *tcpSender) send(ctx context.Context, worker int, o *op, keep bool) (any, error) {
	c := t.conns[worker%len(t.conns)]
	var (
		res any
		err error
	)
	switch o.kind {
	case opEmbed:
		res, err = c.Embed(ctx, o.ids)
	case opPredict:
		res, err = c.Predict(ctx, o.ids)
	default:
		res, err = c.TopK(ctx, client.TopKQuery{ID: o.id, K: topK, Mode: o.mode, Ef: efFor(o.mode)})
	}
	if err != nil || !keep {
		return nil, err
	}
	return res, nil
}

// efFor is the ef a request of the given top-K mode carries.
func efFor(mode string) int {
	if mode == serve.ModeANN {
		return annEf
	}
	return 0
}

func (t *tcpSender) close() {
	for _, c := range t.conns {
		_ = c.Close()
	}
}

// outcome is one request's timeline, relative to its phase's start.
type outcome struct {
	due, sent, done time.Duration
	err             error
	answer          any
	mismatch        bool
}

func (o *outcome) ok() bool { return o.err == nil && !o.mismatch }

// openLoop offers ops at rate requests/s from workers goroutines,
// regardless of how fast answers come back. Each request is due at
// i/rate after the start; a request that cannot start on time (every
// worker busy) is late, and its latency still counts from its due
// time.
func openLoop(s sender, ops []op, rate float64, workers int) []outcome {
	outs := make([]outcome, len(ops))
	// Sized to the number of sends so the dispatcher never blocks on
	// a busy worker: backlog is measured as lateness, not hidden.
	queue := make(chan int, len(ops))
	t0 := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				o := &outs[i]
				o.sent = time.Since(t0)
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				o.answer, o.err = s.send(ctx, w, &ops[i], ops[i].check)
				cancel()
				o.done = time.Since(t0)
			}
		}(w)
	}
	for i := range ops {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		outs[i].due = due
		if d := due - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return outs
}

// phaseStats summarizes one phase.
type phaseStats struct {
	n, failed     int
	latMs         []float64 // from due time; failed requests count as missing every limit
	lateMs        []float64 // sent - due
	okPerS        float64
	p50, p99      float64
	lateP99       float64
	lateGrowthMs  float64
	durationMs    float64
	failedExample error
}

func summarize(outs []outcome) phaseStats {
	st := phaseStats{n: len(outs)}
	if len(outs) == 0 {
		return st
	}
	var last time.Duration
	for i := range outs {
		if outs[i].done > last {
			last = outs[i].done
		}
	}
	st.durationMs = ms(last - outs[0].due)
	ok := 0
	for i := range outs {
		o := &outs[i]
		st.lateMs = append(st.lateMs, ms(o.sent-o.due))
		if o.ok() {
			ok++
			st.latMs = append(st.latMs, ms(o.done-o.due))
			continue
		}
		st.failed++
		if st.failedExample == nil {
			st.failedExample = o.err
			if o.err == nil {
				st.failedExample = fmt.Errorf("answer differs from the in-process oracle")
			}
		}
		st.latMs = append(st.latMs, math.Inf(1))
	}
	if st.durationMs > 0 {
		st.okPerS = float64(ok) / (st.durationMs / 1000)
	}
	st.p50 = quantile(st.latMs, 0.5)
	st.p99 = quantile(st.latMs, 0.99)
	st.lateP99 = quantile(st.lateMs, 0.99)
	st.lateGrowthMs = lateGrowth(st.lateMs)
	return st
}

// lateGrowth compares the median lateness of the last quarter of a
// phase's requests with the first quarter's. A generator (or a
// connection pool) that keeps up shows no growth; a backlog that
// builds shows up as a positive difference.
func lateGrowth(late []float64) float64 {
	q := len(late) / 4
	if q == 0 {
		return 0
	}
	return median(late[len(late)-q:]) - median(late[:q])
}

// stepPasses is the ramp's acceptance rule for one step: nothing
// failed, p99 within the SLO, and lateness did not grow by more than
// a quarter of the SLO. A backlog that builds because the offered rate
// exceeds capacity grows steadily through the step; a stall of the
// shared host grows it only briefly.
func stepPasses(st phaseStats, sloMs float64) bool {
	return st.failed == 0 && st.p99 <= sloMs && st.lateGrowthMs <= sloMs/4
}

// ramp walks the step grid coarse-to-fine: every coarse-th step from
// the bottom until one fails, then the steps between the last pass and
// that failure, in order, until one fails. It returns the highest
// passing step, or -1 when the first step fails. pass runs a step.
func ramp(steps, coarse int, pass func(i int) bool) int {
	best, i := -1, 0
	for ; i < steps; i += coarse {
		if !pass(i) {
			break
		}
		best = i
	}
	if i >= steps {
		i = steps
	}
	for j := best + 1; j < i; j++ {
		if !pass(j) {
			break
		}
		best = j
	}
	return best
}
