package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// client talks to one dlserve over loopback HTTP with at most conns
// keep-alive connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// response is what the benchmark keeps of one reply until it is checked
// after the phase: the raw body and the HTTP outcome.
type response struct {
	status int
	body   []byte
	err    error
}

// do performs one operation and records its timing into s.
func (c *client) do(ctx context.Context, t0 time.Time, s *sample) {
	o := s.op
	var req *http.Request
	var err error
	switch o.kind {
	case opWrite:
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/facts", strings.NewReader(o.write.body))
	default:
		u := c.base + "/query?q=" + url.QueryEscape(o.query)
		if o.kind == opStream {
			u += "&stream=1&limit=" + strconv.Itoa(o.limit)
		}
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	}
	if err != nil {
		s.resp.err = err
		s.end = time.Since(t0)
		return
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		s.resp.err = err
		s.end = time.Since(t0)
		return
	}
	s.resp.status = resp.StatusCode
	s.resp.body, s.firstRow, s.resp.err = readBody(resp.Body, o.kind, t0)
	resp.Body.Close()
	s.end = time.Since(t0)
}

// ping is a doer that sends GET /readyz, for timing the generator itself.
func (c *client) ping(ctx context.Context, t0 time.Time, s *sample) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err == nil {
		var resp *http.Response
		if resp, err = c.hc.Do(req); err == nil {
			s.resp.status = resp.StatusCode
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	s.resp.err = err
	s.end = time.Since(t0)
}

// readBody reads a response body to the end, noting when the first answer
// row has fully arrived: the first "row" line of an NDJSON stream, or the
// first element of a JSON body's "answers" array.
func readBody(r io.Reader, kind opKind, t0 time.Time) ([]byte, time.Duration, error) {
	buf := make([]byte, 0, 8<<10)
	var first time.Duration
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if first == 0 && n > 0 && kind != opWrite && firstRowDone(buf, kind) {
			first = time.Since(t0)
		}
		if errors.Is(err, io.EOF) {
			return buf, first, nil
		}
		if err != nil {
			return buf, first, err
		}
	}
}

var (
	answersKey = []byte(`"answers":[`)
	rowKey     = []byte(`{"row":`)
)

func firstRowDone(buf []byte, kind opKind) bool {
	if kind == opStream {
		i := bytes.Index(buf, rowKey)
		return i >= 0 && bytes.IndexByte(buf[i:], '\n') >= 0
	}
	i := bytes.Index(buf, answersKey)
	if i < 0 {
		return false
	}
	rest := buf[i+len(answersKey):]
	if len(rest) > 0 && rest[0] == ']' {
		return false // no rows: the first-row time is the end time
	}
	return bytes.IndexByte(rest, ']') >= 0
}

// queryReply is the part of a /query JSON body the checker reads.
type queryReply struct {
	Answers    [][]string `json:"answers"`
	Count      int        `json:"count"`
	Epoch      uint64     `json:"epoch"`
	Cached     bool       `json:"cached"`
	Strategy   string     `json:"strategy"`
	GoMaxProcs int        `json:"gomaxprocs"`
}

// streamReply is a parsed NDJSON stream: header, rows and the done line.
type streamReply struct {
	Epoch     uint64
	Rows      [][]string
	Done      bool
	Count     int
	Truncated bool
	Cached    bool
	Strategy  string
	Error     string
}

type writeReply struct {
	Epoch      uint64 `json:"epoch"`
	Maintained int    `json:"maintained"`
	Recomputed int    `json:"recomputed"`
}

func parseQuery(body []byte) (*queryReply, error) {
	var q queryReply
	if err := json.Unmarshal(body, &q); err != nil {
		return nil, fmt.Errorf("query body: %w", err)
	}
	return &q, nil
}

func parseStream(body []byte) (*streamReply, error) {
	var st streamReply
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var l struct {
			Row       []string `json:"row"`
			Done      bool     `json:"done"`
			Epoch     uint64   `json:"epoch"`
			Count     int      `json:"count"`
			Truncated bool     `json:"truncated"`
			Cached    bool     `json:"cached"`
			Strategy  string   `json:"strategy"`
			Error     string   `json:"error"`
		}
		if err := json.Unmarshal(line, &l); err != nil {
			return nil, fmt.Errorf("stream line %q: %w", line, err)
		}
		switch {
		case first:
			st.Epoch, st.Cached = l.Epoch, l.Cached
			first = false
		case l.Row != nil:
			st.Rows = append(st.Rows, l.Row)
		case l.Done:
			st.Done, st.Count, st.Truncated, st.Strategy, st.Error = true, l.Count, l.Truncated, l.Strategy, l.Error
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return &st, nil
}

func parseWrite(body []byte) (*writeReply, error) {
	var w writeReply
	if err := json.Unmarshal(body, &w); err != nil {
		return nil, fmt.Errorf("facts body: %w", err)
	}
	return &w, nil
}
