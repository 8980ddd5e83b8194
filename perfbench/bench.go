package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/simsvc"
)

// span is one timed call the benchmark made into a layer, or one request
// a layer served.
type span struct {
	Name  string            `json:"name"`
	Start time.Time         `json:"start"`
	End   time.Time         `json:"end"`
	Attrs map[string]string `json:"attrs,omitempty"`
	// Work marks a span during which the layer itself was busy, rather
	// than waiting on another layer (trace.unattributed_pct counts time
	// no work span covers).
	Work bool `json:"work"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps a traced run's spans in memory. A nil recorder records
// nothing, which is how untraced runs stay free of its cost.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// time runs fn inside a span named name.
func (r *recorder) time(name string, work bool, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(span{Name: name, Start: start, End: end, Work: work})
	return end.Sub(start)
}

func (r *recorder) named(name string) []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func (r *recorder) durationsMS(name string, attr string) []float64 {
	var out []float64
	for _, s := range r.named(name) {
		if attr == "" || s.Attrs[attr] != "" {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// countingWriter counts the bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	bytes int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// wrap times every request a node's handler serves. An export request
// blocks until its sweep is done; only the part after the job finished
// is the handler's own work.
func (r *recorder) wrap(n *node, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		sw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, req)
		end := time.Now()
		s := span{Start: start, End: end, Work: true, Attrs: map[string]string{"node": n.id}}
		proxied := sw.Header().Get(cluster.ViaHeader) != ""
		if proxied {
			s.Attrs["proxied"] = "1"
			s.Work = false // the owner's hop request does the work
		}
		p := req.URL.Path
		switch {
		case req.Method == http.MethodPost && p == "/sweeps":
			s.Name = "http.submit"
		case strings.HasSuffix(p, "/export"):
			s.Name = "http.export"
			s.Attrs["bytes"] = fmt.Sprint(sw.bytes)
			if j, ok := n.svc.Job(strings.TrimSuffix(strings.TrimPrefix(p, "/sweeps/"), "/export")); ok && !proxied {
				if f := j.FinishedAt(); f.After(start) {
					s.Start = f
				}
			}
		case strings.HasPrefix(p, "/sweeps/"):
			s.Name = "http.status"
		case strings.HasPrefix(p, "/cache/"):
			s.Name = "fabric.peer_lookup"
		case strings.HasPrefix(p, "/cluster/"):
			s.Name = "cluster." + strings.TrimPrefix(p, "/cluster/")
		default:
			s.Name = "http.other"
		}
		r.add(s)
	})
}

// node is one in-process service (optionally a cluster member) behind a
// loopback HTTP server.
type node struct {
	id  string
	dir string // scratch directory removed on close ("" for none)
	svc *simsvc.Service
	cn  *cluster.Node
	srv *httptest.Server
}

// listen reserves a node's loopback address; serve starts it once its
// handler exists (cluster members need every member's URL up front).
func listen() *node {
	return &node{srv: httptest.NewUnstartedServer(nil)}
}

func (n *node) url() string { return "http://" + n.srv.Listener.Addr().String() }

// serve starts the node's server on its handler, wrapped in the
// recorder's timing.
func (n *node) serve(rec *recorder) {
	h := n.svc.Handler()
	if n.cn != nil {
		h = n.cn.Handler()
	}
	if rec != nil {
		h = rec.wrap(n, h)
	}
	n.srv.Config.Handler = h
	n.srv.Start()
}

func (n *node) close() {
	n.srv.Close()
	if n.cn != nil {
		n.cn.Close()
	}
	if n.svc != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		n.svc.Shutdown(ctx)
	}
	if n.dir != "" {
		os.RemoveAll(n.dir)
	}
}

// startService runs one standalone service behind a loopback server.
func startService(cfg simsvc.Config, rec *recorder) (*node, error) {
	n := listen()
	n.id = "single"
	svc, err := simsvc.New(cfg)
	if err != nil {
		n.srv.Close()
		return nil, err
	}
	n.svc = svc
	n.serve(rec)
	return n, nil
}

// client is the benchmark's single HTTP client: at most two connections
// to each node.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(method, url string, body any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// submit POSTs a sweep and returns its job ID.
func (c *client) submit(base string, req any) (string, error) {
	data, err := c.do(http.MethodPost, base+"/sweeps", req)
	if err != nil {
		return "", err
	}
	var st simsvc.Status
	if err := json.Unmarshal(data, &st); err != nil {
		return "", fmt.Errorf("submit response: %w", err)
	}
	return st.ID, nil
}

// finished GETs a job's status and fails unless every cell succeeded.
func (c *client) finished(base, id string) error {
	data, err := c.do(http.MethodGet, base+"/sweeps/"+id, nil)
	if err != nil {
		return err
	}
	var st simsvc.Status
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("status response: %w", err)
	}
	if st.State != simsvc.JobDone || st.Failed > 0 {
		return fmt.Errorf("sweep %s ended %s with %d failed cells", id, st.State, st.Failed)
	}
	return nil
}

func (c *client) export(base, id string) ([]byte, error) {
	return c.do(http.MethodGet, base+"/sweeps/"+id+"/export", nil)
}

// tempDir makes a scratch directory under the checkout's build dir.
func tempDir() (string, error) {
	root := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}
