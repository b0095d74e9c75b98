package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// requestTimeout bounds one request on a conn; a daemon that takes longer
// has hung, and the request fails.
const requestTimeout = 30 * time.Second

// conn is one keep-alive HTTP/1.1 connection to the daemon that writes a
// request and reads its response on the calling goroutine. net/http's
// client hands every request to a writer and a reader goroutine of the
// connection; on a machine with few CPUs those hand-offs are scheduler
// wake-ups that land in the measured latency (about a third of a
// pp-small-mix round trip) and take CPU from the daemon. conn speaks only
// what gnnserve answers: a status line, headers, and a body sized by
// Content-Length or chunked.
type conn struct {
	addr string // host:port
	nc   net.Conn
	br   *bufio.Reader
	req  []byte // request buffer, reused
}

// newConn returns a connection to baseURL ("http://host:port"); it dials
// on first use. Cancelling the context of the call that dialled aborts
// any request in flight on the connection.
func newConn(baseURL string) *conn {
	return &conn{addr: strings.TrimPrefix(baseURL, "http://")}
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// post sends a JSON body and reads the whole response.
func (c *conn) post(ctx context.Context, path string, body []byte, rid string) (int, []byte, error) {
	return c.do(ctx, "POST", path, body, rid)
}

// do sends one request, with rid as its X-Request-ID unless empty, and
// reads the whole response. A transport error closes the connection; the
// next call dials again.
func (c *conn) do(ctx context.Context, method, path string, body []byte, rid string) (int, []byte, error) {
	if c.nc == nil {
		var d net.Dialer
		nc, err := d.DialContext(ctx, "tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		context.AfterFunc(ctx, func() { nc.SetDeadline(time.Unix(1, 0)) })
		c.nc, c.br = nc, bufio.NewReaderSize(nc, 16<<10)
	}
	if err := c.nc.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		c.close()
		return 0, nil, err
	}
	r := append(c.req[:0], method...)
	r = append(r, ' ')
	r = append(r, path...)
	r = append(r, " HTTP/1.1\r\nHost: "...)
	r = append(r, c.addr...)
	if body != nil {
		r = append(r, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		r = strconv.AppendInt(r, int64(len(body)), 10)
	}
	if rid != "" {
		r = append(r, "\r\nX-Request-ID: "...)
		r = append(r, rid...)
	}
	r = append(r, "\r\n\r\n"...)
	r = append(r, body...)
	c.req = r
	if _, err := c.nc.Write(r); err != nil {
		c.close()
		return 0, nil, err
	}
	status, resp, keep, err := readResponse(c.br)
	if err != nil || !keep {
		c.close()
	}
	return status, resp, err
}

// readResponse reads one HTTP/1.1 response; keep reports whether the
// connection may carry another request.
func readResponse(br *bufio.Reader) (status int, body []byte, keep bool, err error) {
	line, err := readLine(br)
	if err != nil {
		return 0, nil, false, err
	}
	proto, rest, _ := strings.Cut(line, " ")
	code, _, _ := strings.Cut(rest, " ")
	if !strings.HasPrefix(proto, "HTTP/1.") {
		return 0, nil, false, fmt.Errorf("bad status line %q", line)
	}
	if status, err = strconv.Atoi(code); err != nil {
		return 0, nil, false, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	keep = true
	for {
		h, err := readLine(br)
		if err != nil {
			return 0, nil, false, err
		}
		if h == "" {
			break
		}
		k, v, ok := strings.Cut(h, ":")
		if !ok {
			return 0, nil, false, fmt.Errorf("bad header %q", h)
		}
		v = strings.TrimSpace(v)
		switch strings.ToLower(k) {
		case "content-length":
			if length, err = strconv.Atoi(v); err != nil || length < 0 {
				return 0, nil, false, fmt.Errorf("bad Content-Length %q", v)
			}
		case "transfer-encoding":
			chunked = strings.EqualFold(v, "chunked")
		case "connection":
			keep = !strings.EqualFold(v, "close")
		}
	}
	switch {
	case chunked:
		body, err = readChunked(br)
	case length >= 0:
		body = make([]byte, length)
		_, err = io.ReadFull(br, body)
	default:
		// No length: the body runs to the end of the connection.
		body, err = io.ReadAll(br)
		keep = false
	}
	if err != nil {
		return 0, nil, false, err
	}
	return status, body, keep, nil
}

// readChunked reads a chunked body and its trailers.
func readChunked(br *bufio.Reader) ([]byte, error) {
	var body bytes.Buffer
	for {
		line, err := readLine(br)
		if err != nil {
			return nil, err
		}
		size, _, _ := strings.Cut(line, ";")
		n, err := strconv.ParseInt(strings.TrimSpace(size), 16, 64)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad chunk size %q", line)
		}
		if n == 0 {
			for {
				t, err := readLine(br)
				if err != nil {
					return nil, err
				}
				if t == "" {
					return body.Bytes(), nil
				}
			}
		}
		if _, err := io.CopyN(&body, br, n); err != nil {
			return nil, err
		}
		if crlf, err := readLine(br); err != nil || crlf != "" {
			return nil, errors.New("chunk not followed by CRLF")
		}
	}
}

// readLine reads one line without its CRLF.
func readLine(br *bufio.Reader) (string, error) {
	b, err := br.ReadSlice('\n')
	if err != nil {
		if errors.Is(err, bufio.ErrBufferFull) {
			return "", errors.New("response line too long")
		}
		return "", err
	}
	return string(bytes.TrimRight(b, "\r\n")), nil
}
