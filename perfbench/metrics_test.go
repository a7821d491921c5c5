package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

const promBefore = `# HELP gsgcn_batcher_batches_total Micro-batches dispatched.
# TYPE gsgcn_batcher_batches_total counter
gsgcn_batcher_batches_total{model="default",shard="0"} 10
gsgcn_batcher_batches_total{model="default",shard="1"} 5
gsgcn_batcher_queries_total{model="default",shard="0"} 12
gsgcn_batcher_queries_total{model="default",shard="1"} 5
gsgcn_batcher_flush_duration_seconds_bucket{model="default",le="0.001"} 14
gsgcn_batcher_flush_duration_seconds_sum{model="default"} 0.015
gsgcn_batcher_flush_duration_seconds_count{model="default"} 15
gsgcn_shed_total{model="default",reason="queue"} 0
`

const promAfter = `gsgcn_batcher_batches_total{model="default",shard="0"} 30
gsgcn_batcher_batches_total{model="default",shard="1"} 25
gsgcn_batcher_queries_total{model="default",shard="0"} 72
gsgcn_batcher_queries_total{model="default",shard="1"} 45
gsgcn_batcher_flush_duration_seconds_sum{model="default"} 0.055
gsgcn_batcher_flush_duration_seconds_count{model="default"} 55
gsgcn_shed_total{model="default",reason="queue"} 3
gsgcn_shed_total{model="default",reason="quota"} 1
`

func TestPromDeltas(t *testing.T) {
	before, err := parseProm(strings.NewReader(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	batches := delta(before, after, "gsgcn_batcher_batches_total")
	queries := delta(before, after, "gsgcn_batcher_queries_total")
	if batches != 40 || queries != 100 {
		t.Fatalf("batches %v queries %v, want 40 and 100 summed over shards", batches, queries)
	}
	if got := ratio(queries, batches); got != 2.5 {
		t.Errorf("batch size = %v, want 2.5", got)
	}
	flush := 1000 * ratio(delta(before, after, "gsgcn_batcher_flush_duration_seconds_sum"),
		delta(before, after, "gsgcn_batcher_flush_duration_seconds_count"))
	if math.Abs(flush-1) > 1e-9 {
		t.Errorf("mean flush = %vms, want 1ms", flush)
	}
	if got := delta(before, after, "gsgcn_shed_total"); got != 4 {
		t.Errorf("shed delta = %v, want 4 (a series absent before counts from 0)", got)
	}
	// A name that is a prefix of another must not match it.
	if got := before.sum("gsgcn_batcher_flush_duration_seconds"); got != 0 {
		t.Errorf("prefix matched other series: %v", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio over zero = %v, want 0", got)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	if _, err := parseProm(strings.NewReader("gsgcn_x{a=\"b\"} notanumber\n")); err == nil {
		t.Error("bad value accepted")
	}
}

func TestParseStatCPU(t *testing.T) {
	// pid (comm with spaces) state ppid ... utime=250 stime=50 (fields 14, 15).
	stat := "1234 (gsgcn serve) S 1 1234 1234 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 8 0 100 0 0"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("cpu = %v s, want 3 (300 ticks at 100 Hz)", got)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("malformed stat accepted")
	}
}

func TestSelfProcReadable(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc on this host")
	}
	if mb, err := vmHWM("self"); err != nil || mb <= 0 {
		t.Errorf("VmHWM = %v, %v", mb, err)
	}
	if _, err := cpuSeconds("self"); err != nil {
		t.Error(err)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric and
// workload tables of this program in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not defined", w.Name)
		}
	}
	check := func(kind string, defs []metricDef, names, units, better []string) {
		if len(defs) != len(names) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(names), len(defs))
			return
		}
		for i, d := range defs {
			if d.name != names[i] || d.unit != units[i] || d.better != better[i] {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %s/%s/%s", kind, i, d, names[i], units[i], better[i])
			}
		}
	}
	var n, u, b []string
	for _, m := range doc.EndToEnd {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, n, u, b)
	n, u, b = nil, nil, nil
	for _, m := range doc.PerLayer {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
	}
	check("per_layer", perLayer, n, u, b)
}
