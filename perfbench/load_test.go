package main

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestRampCoarseThenFine(t *testing.T) {
	// Capacity between steps 9 and 10: coarse steps 0,4,8 pass, 12
	// fails, then 9 passes and 10 fails.
	var visited []int
	best := ramp(32, 4, func(i int) bool {
		visited = append(visited, i)
		return i <= 9
	})
	if best != 9 {
		t.Errorf("best = %d, want 9", best)
	}
	if want := []int{0, 4, 8, 12, 9, 10}; !reflect.DeepEqual(visited, want) {
		t.Errorf("visited %v, want %v", visited, want)
	}
}

func TestRampEdges(t *testing.T) {
	if best := ramp(32, 4, func(int) bool { return false }); best != -1 {
		t.Errorf("all steps failing: best = %d, want -1", best)
	}
	var visited []int
	best := ramp(10, 4, func(i int) bool { visited = append(visited, i); return true })
	if best != 9 {
		t.Errorf("all steps passing: best = %d, want the top step 9", best)
	}
	if want := []int{0, 4, 8, 9}; !reflect.DeepEqual(visited, want) {
		t.Errorf("visited %v, want %v", visited, want)
	}
	// A failure on the first fine step keeps the coarse pass.
	if best := ramp(32, 4, func(i int) bool { return i <= 4 }); best != 4 {
		t.Errorf("best = %d, want 4", best)
	}
}

func TestLateGrowth(t *testing.T) {
	flat := []float64{1, 2, 1, 2, 1, 2, 1, 2}
	if g := lateGrowth(flat); g != 0 {
		t.Errorf("steady lateness grew by %v", g)
	}
	rising := []float64{0, 0, 1, 2, 3, 4, 9, 9}
	if g := lateGrowth(rising); g != 9 {
		t.Errorf("backlog growth = %v, want 9", g)
	}
	if g := lateGrowth([]float64{5, 6, 7}); g != 0 {
		t.Errorf("too few samples to split should read 0, got %v", g)
	}
}

func at(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

func TestSummarizeTimesFromDueAndCountsFailures(t *testing.T) {
	outs := []outcome{
		{due: at(0), sent: at(0), done: at(2)},
		{due: at(10), sent: at(15), done: at(16)}, // sent late: latency 6ms from due
		{due: at(20), sent: at(20), done: at(21), err: errors.New("HTTP 500")},
		{due: at(30), sent: at(30), done: at(31), mismatch: true},
	}
	st := summarize(outs)
	if st.n != 4 || st.failed != 2 {
		t.Fatalf("n=%d failed=%d, want 4 and 2", st.n, st.failed)
	}
	if !math.IsInf(st.p99, 1) {
		t.Errorf("failed and mismatched requests must miss every limit, p99 = %v", st.p99)
	}
	if got := st.latMs[1]; math.Abs(got-6) > 1e-9 {
		t.Errorf("late request latency = %v, want 6 (from its due time)", got)
	}
	if got := st.lateMs[1]; math.Abs(got-5) > 1e-9 {
		t.Errorf("lateness = %v, want 5", got)
	}
	// 2 ok answers over 31ms from the first due time.
	if want := 2 / 0.031; math.Abs(st.okPerS-want) > 1e-6 {
		t.Errorf("ok/s = %v, want %v", st.okPerS, want)
	}
	if stepPasses(st, 1000) {
		t.Error("a step with failures must not pass")
	}
}

func TestStepPasses(t *testing.T) {
	ok := phaseStats{p99: 10, lateGrowthMs: 1}
	if !stepPasses(ok, 50) {
		t.Error("healthy step rejected")
	}
	if stepPasses(phaseStats{p99: 51}, 50) {
		t.Error("p99 above the SLO accepted")
	}
	if !stepPasses(phaseStats{p99: 10, lateGrowthMs: 12}, 50) {
		t.Error("a brief stall (growth under a quarter of the SLO) rejected")
	}
	if stepPasses(phaseStats{p99: 10, lateGrowthMs: 13}, 50) {
		t.Error("growing lateness accepted")
	}
}

// countingSender answers after a fixed service time on at most one
// request at a time, like one busy connection.
type countingSender struct {
	service  time.Duration
	inflight atomic.Int32
	maxSeen  atomic.Int32
}

func (c *countingSender) send(_ context.Context, _ int, o *op, keep bool) (any, error) {
	n := c.inflight.Add(1)
	for {
		m := c.maxSeen.Load()
		if n <= m || c.maxSeen.CompareAndSwap(m, n) {
			break
		}
	}
	time.Sleep(c.service)
	c.inflight.Add(-1)
	if keep {
		return o.id, nil
	}
	return nil, nil
}

func (c *countingSender) close() {}

func TestOpenLoopKeepsScheduleAndShowsBacklog(t *testing.T) {
	ops := make([]op, 40)
	for i := range ops {
		ops[i] = op{kind: opTopK, id: i, check: i%10 == 0}
	}
	// One worker, 4ms service, offered every 1ms: the backlog grows,
	// so lateness grows and latency (from due time) far exceeds the
	// service time.
	s := &countingSender{service: 4 * time.Millisecond}
	outs := openLoop(s, ops, 1000, 1)
	st := summarize(outs)
	if st.failed != 0 {
		t.Fatalf("unexpected failures: %v", st.failedExample)
	}
	if st.lateGrowthMs < 20 {
		t.Errorf("overloaded single worker: lateness grew by only %.2fms", st.lateGrowthMs)
	}
	if outs[39].due != 39*time.Millisecond {
		t.Errorf("due time of request 39 = %v, want 39ms", outs[39].due)
	}
	if outs[10].answer != 10 || outs[11].answer != nil {
		t.Errorf("only checked answers are kept: %v %v", outs[10].answer, outs[11].answer)
	}
	if s.maxSeen.Load() != 1 {
		t.Errorf("one worker ran %d requests at once", s.maxSeen.Load())
	}
}

func TestStreamDeterministicAndMixed(t *testing.T) {
	w := workloads["amazon-tcp"]
	a := newStream(w, 1000, 42).ops(4000)
	b := newStream(w, 1000, 42).ops(4000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed must give the same request stream")
	}
	c := newStream(w, 1000, 43).ops(4000)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same stream")
	}
	var kinds [3]int
	ann, checked := 0, 0
	for _, o := range a {
		kinds[o.kind]++
		if o.kind == opTopK && o.mode == "ann" {
			ann++
		}
		if o.check {
			checked++
		}
		for _, id := range append(o.ids, o.id) {
			if id < 0 || id >= 1000 {
				t.Fatalf("id %d out of range", id)
			}
		}
		if o.kind != opTopK && (len(o.ids) < 1 || len(o.ids) > maxIDs) {
			t.Fatalf("%d ids per request, want 1..%d", len(o.ids), maxIDs)
		}
	}
	// Mix 1:1:2, ann share 3/4, one in checkEvery checked.
	near := func(got int, want float64) bool { return math.Abs(float64(got)-want) < 0.1*want }
	if !near(kinds[opEmbed], 1000) || !near(kinds[opPredict], 1000) || !near(kinds[opTopK], 2000) {
		t.Errorf("mix %v, want about 1000:1000:2000", kinds)
	}
	if !near(ann, 0.75*float64(kinds[opTopK])) {
		t.Errorf("%d ann of %d topk, want 3/4", ann, kinds[opTopK])
	}
	if !near(checked, 4000.0/checkEvery) {
		t.Errorf("%d checked, want about %d", checked, 4000/checkEvery)
	}
}

func TestZipfRepeatsMoreThanUniform(t *testing.T) {
	zipf := newStream(workloads["amazon-tcp"], 16000, 1).ops(3000)
	uniform := newStream(workloads["reddit-json"], 16000, 1).ops(3000)
	if zs, us := repeatShare(zipf), repeatShare(uniform); zs < 0.3 || us > 0.05 {
		t.Errorf("repeat share zipf %.3f uniform %.3f: want a skewed and a flat stream", zs, us)
	}
	ops := []op{{kind: opTopK, id: 1, mode: "ann"}, {kind: opTopK, id: 1, mode: "ann"},
		{kind: opTopK, id: 1, mode: "exact"}, {kind: opEmbed, ids: []int{1, 2}}}
	if got := repeatShare(ops); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("repeat share = %v, want 1/3", got)
	}
	if got := meanIDs(ops); got != 2 {
		t.Errorf("ids per request = %v, want 2", got)
	}
}
