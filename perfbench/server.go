package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// server is one running gsgcn-serve process.
type server struct {
	cmd      *exec.Cmd
	pid      string
	base     string // http://127.0.0.1:port
	wireAddr string // host:port of the framed TCP listener ("" when off)
	ctl      *http.Client
	exited   chan error
	// readyCPU is the CPU time the server spent from exec to ready.
	readyCPU float64
}

// health is the subset of /healthz the benchmark reads.
type health struct {
	Status        string  `json:"status"`
	Version       uint64  `json:"version"`
	ModelVersion  uint64  `json:"model_version"`
	WarmStart     bool    `json:"warm_start"`
	WarmNote      string  `json:"warm_note"`
	ResidentBytes int64   `json:"resident_bytes"`
	Coalescing    float64 `json:"coalescing"`
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches the server on the run's inputs and returns
// once /healthz reports the model ready, with the time that took.
func startServer(w workload, o options, dir string, logOut io.Writer) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	s := &server{base: fmt.Sprintf("http://127.0.0.1:%d", port)}
	args := []string{
		"-data", dir + "/" + dataFile,
		"-load", dir + "/" + ckptB,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-no-access-log",
	}
	if w.transport == "tcp" {
		wp, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		s.wireAddr = fmt.Sprintf("127.0.0.1:%d", wp)
		args = append(args, "-wire-addr", s.wireAddr)
	}
	if w.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(w.shards), "-shard-seed", strconv.FormatUint(shardSeed(o.seed), 10))
	}
	if w.ann {
		args = append(args, "-ann")
	}
	if w.warm {
		args = append(args, "-artifact", dir+"/"+artifactB)
	}
	s.cmd = exec.Command(o.serveBin, args...)
	s.cmd.Stdout = logOut
	s.cmd.Stderr = logOut
	// One control connection, separate from the load connections.
	s.ctl = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	start := time.Now()
	s.exited, err = children.start(s.cmd)
	if err != nil {
		return nil, 0, err
	}
	s.pid = strconv.Itoa(s.cmd.Process.Pid)
	deadline := start.Add(60 * time.Second)
	for {
		if h, err := s.health(); err == nil && h.Status == "ok" {
			d := time.Since(start)
			s.readyCPU = s.cpu()
			return s, d, nil
		}
		select {
		case err := <-s.exited:
			children.forget(s.cmd)
			return nil, 0, fmt.Errorf("server exited during start-up: %v", err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("server not ready after 60s")
		}
	}
}

func shardSeed(seed uint64) uint64 { return seed + 7 }

func (s *server) stop() {
	s.ctl.CloseIdleConnections()
	children.stop(s.cmd, 5*time.Second)
}

func (s *server) health() (*health, error) {
	resp, err := s.ctl.Get(s.base + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	var h health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	return &h, nil
}

// reload POSTs /reload with a checkpoint and artifact and returns the
// round trip.
func (s *server) reload(ckpt, art string) (time.Duration, error) {
	body := map[string]any{"path": ckpt}
	if art != "" {
		body["artifact"] = art
	}
	raw, _ := json.Marshal(body)
	start := time.Now()
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, s.base+"/reload", strings.NewReader(string(raw)))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.ctl.Do(req)
	if err != nil {
		return 0, err
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("reload: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return d, nil
}

// scrape fetches /metrics as a series -> value map.
func (s *server) scrape() (promSample, error) {
	resp, err := s.ctl.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: HTTP %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// promSample maps a series ("name{labels}") to its value.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition format.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of one metric name, across label sets.
func (p promSample) sum(name string) float64 {
	total := 0.0
	for series, v := range p {
		n := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			n = series[:i]
		}
		if n == name {
			total += v
		}
	}
	return total
}

// delta returns after-before of a metric summed over its series.
func delta(before, after promSample, name string) float64 {
	return after.sum(name) - before.sum(name)
}

// serverCPU returns the server's CPU seconds so far.
func (s *server) cpu() float64 {
	v, err := cpuSeconds(s.pid)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: server cpu:", err)
	}
	return v
}
