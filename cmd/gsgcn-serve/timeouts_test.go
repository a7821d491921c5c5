package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until at most n goroutines run, or fails after
// a few seconds.
func waitGoroutines(t *testing.T, n int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want at most the baseline %d", what, runtime.NumGoroutine(), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSlowClientsDisconnected runs newHTTPServer with shortened
// timeouts. A client that trickles its request headers one byte at a
// time, and one that idles after a keep-alive request, are both
// disconnected, and the server's goroutines return to the baseline
// while it keeps serving.
func TestSlowClientsDisconnected(t *testing.T) {
	const header, idle = 200 * time.Millisecond, 300 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}), header, idle)
	go srv.Serve(ln)
	defer srv.Close()
	// A first request settles the server's own goroutines.
	resp, err := http.Get("http://" + ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	http.DefaultClient.CloseIdleConnections()
	base := runtime.NumGoroutine()

	// Trickle: one header byte every 20 ms, never finishing the headers.
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	closed := make(chan struct{})
	go func() {
		io.Copy(io.Discard, c)
		close(closed)
	}()
	req := []byte("GET / HTTP/1.1\r\nHost: x\r\nX-Slow: ")
trickle:
	for i := 0; ; i++ {
		b := byte('a')
		if i < len(req) {
			b = req[i]
		}
		if _, err := c.Write([]byte{b}); err != nil {
			break
		}
		select {
		case <-closed:
			break trickle
		case <-time.After(20 * time.Millisecond):
		}
		if time.Since(start) > 20*header {
			t.Fatalf("trickling client still connected after %v", time.Since(start))
		}
	}
	<-closed
	c.Close()

	// Idle: one complete keep-alive request, then silence.
	c, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, "GET / HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	if resp, err = http.ReadResponse(br, nil); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	c.SetReadDeadline(time.Now().Add(20 * idle))
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection: read returned %v, want EOF from the server closing it", err)
	}
	waitGoroutines(t, base, "after both disconnects")
}
