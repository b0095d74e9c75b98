package main

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

func TestReadResponse(t *testing.T) {
	for _, tc := range []struct {
		name, raw, body string
		status          int
		keep            bool
	}{
		{"length", "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello", "hello", 200, true},
		{"chunked", "HTTP/1.1 429 Too Many Requests\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2;x=y\r\nde\r\n0\r\nT: v\r\n\r\n", "abcde", 429, true},
		{"close", "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok", "ok", 200, false},
		{"to eof", "HTTP/1.0 200 OK\r\n\r\nrest", "rest", 200, false},
	} {
		status, body, keep, err := readResponse(bufio.NewReader(strings.NewReader(tc.raw)))
		if err != nil || status != tc.status || string(body) != tc.body || keep != tc.keep {
			t.Errorf("%s: got %d %q keep=%v err=%v", tc.name, status, body, keep, err)
		}
	}
	for _, raw := range []string{
		"garbage\r\n\r\n",
		"HTTP/1.1 abc OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabX\r\n0\r\n\r\n",
	} {
		if _, _, _, err := readResponse(bufio.NewReader(strings.NewReader(raw))); err == nil {
			t.Errorf("%q: no error", raw)
		}
	}
}

// TestConnAgainstNetHTTP drives a net/http server, as gnnserve is, over
// one kept-alive connection: small and chunked bodies, the request ID,
// and a GET.
func TestConnAgainstNetHTTP(t *testing.T) {
	var accepted atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		if r.Method == http.MethodGet {
			io.WriteString(w, "stats")
			return
		}
		if r.Header.Get("X-Request-ID") != "rid-1" && string(b) != "small" {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		if string(b) == "big" {
			// Past net/http's buffer, so the answer is chunked.
			io.WriteString(w, strings.Repeat("x", 10000))
			return
		}
		w.Write(b)
	}))
	srv.Listener = countingListener{srv.Listener, &accepted}
	srv.Start()
	defer srv.Close()

	c := newConn(srv.URL)
	defer c.close()
	ctx := context.Background()
	if st, b, err := c.post(ctx, "/q", []byte("small"), ""); err != nil || st != 200 || string(b) != "small" {
		t.Fatalf("small: %d %q %v", st, b, err)
	}
	if st, b, err := c.post(ctx, "/q", []byte("big"), "rid-1"); err != nil || st != 200 || len(b) != 10000 {
		t.Fatalf("big: %d %d bytes %v", st, len(b), err)
	}
	if st, _, err := c.post(ctx, "/q", []byte("other"), ""); err != nil || st != http.StatusBadRequest {
		t.Fatalf("bad request: %d %v", st, err)
	}
	if st, b, err := c.do(ctx, "GET", "/v1/stats", nil, ""); err != nil || st != 200 || string(b) != "stats" {
		t.Fatalf("get: %d %q %v", st, b, err)
	}
	if n := accepted.Load(); n != 1 {
		t.Errorf("%d connections for four requests, want 1", n)
	}
}

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	n *atomic.Int32
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}
