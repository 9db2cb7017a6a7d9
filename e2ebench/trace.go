package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"itag/internal/cluster"
	"itag/internal/core"
	"itag/internal/crowd"
	"itag/internal/server"
	"itag/internal/store"
	"itag/internal/strategy"
)

// The traced run hosts the same packages itagd wires together, in this
// process, and records a span around every call into a layer's public
// interface: the SDK's and the cluster's http.RoundTrippers, the
// http.Handler, the store.Store under the Catalog, and the
// strategy.Strategy and crowd.Platform an engine steps. Spans stay in
// memory and are written out when the run ends.

// span is one timed call. Parent links a store call to the handler running
// on the same goroutine, and a strategy or crowd call to its engine step.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"` // request ID shared by client and handler spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"` // calls visited (ScanRange) or results (crowd step)
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e6 }

type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	active sync.Map // goroutine id → ID of the enclosing span on it
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// goid is the current goroutine's id, parsed from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = b[len("goroutine "):]
	id, _ := strconv.ParseUint(string(b[:strings.IndexByte(string(b), ' ')]), 10, 64)
	return id
}

// enter opens a parent span on this goroutine; the returned func closes it.
func (t *tracer) enter(name, req string) func(n int) {
	id := t.nextID.Add(1)
	g := goid()
	t.active.Store(g, id)
	start := t.now()
	return func(n int) {
		t.active.Delete(g)
		t.record(span{ID: id, Name: name, Req: req, Start: start, End: t.now(), N: n})
	}
}

// child times fn as a child of whatever span is open on this goroutine.
func (t *tracer) child(name string, fn func() int) {
	var parent uint64
	if v, ok := t.active.Load(goid()); ok {
		parent = v.(uint64)
	}
	start := t.now()
	n := fn()
	t.record(span{ID: t.nextID.Add(1), Parent: parent, Name: name, Start: start, End: t.now(), N: n})
}

// routeName maps an API request to the route labels the metrics use.
func routeName(method, path string) string {
	switch {
	case method == http.MethodPost && strings.HasSuffix(path, "/submit"):
		return "submit_task"
	case method == http.MethodPost && strings.HasSuffix(path, "/tasks"):
		return "request_task"
	case path == "/api/v1/cluster/replicate":
		return "replicate"
	case path == "/api/v1/cluster/wal":
		return "wal"
	case method != http.MethodGet || !strings.HasPrefix(path, "/api/v1/projects/"):
		return "other"
	case strings.HasSuffix(path, "/export"):
		return "export"
	case strings.Contains(path, "/resources/"):
		return "get_resource"
	case strings.Count(path, "/") == 4:
		return "get_project"
	}
	return "other"
}

// handler wraps an API handler with a server.<route> span.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		done := t.enter("server."+routeName(r.Method, r.URL.Path), r.Header.Get("X-Request-Id"))
		h.ServeHTTP(w, r)
		done(0)
	})
}

// roundTripper times HTTP exchanges until the response body is closed.
type roundTripper struct {
	t     *tracer
	base  http.RoundTripper
	name  func(*http.Request) string
	setID bool
}

func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	s := span{ID: rt.t.nextID.Add(1), Name: rt.name(req)}
	if rt.setID {
		s.Req = "e2e-" + strconv.FormatUint(s.ID, 10)
		req = req.Clone(req.Context())
		req.Header.Set("X-Request-Id", s.Req)
	}
	s.Start = rt.t.now()
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		s.End = rt.t.now()
		rt.t.record(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: rt.t, s: s}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.t.now()
		b.t.record(b.s)
	})
	return err
}

func (t *tracer) sdkTransport(base http.RoundTripper) http.RoundTripper {
	return &roundTripper{t: t, base: base, setID: true, name: func(*http.Request) string { return "client.http" }}
}

func (t *tracer) clusterTransport(base http.RoundTripper) http.RoundTripper {
	return &roundTripper{t: t, base: base, name: func(r *http.Request) string {
		switch r.URL.Path {
		case "/api/v1/cluster/replicate":
			return "cluster.push"
		case "/api/v1/cluster/wal":
			return "cluster.pull"
		}
		return "cluster.other"
	}}
}

// tracedStore times the calls the Catalog makes into its store.
type tracedStore struct {
	store.Store
	t *tracer
}

func (s *tracedStore) Put(table, key string, v any) (err error) {
	s.t.child("store.put", func() int { err = s.Store.Put(table, key, v); return 1 })
	return err
}

func (s *tracedStore) Apply(muts []store.Mutation) (err error) {
	s.t.child("store.put", func() int { err = s.Store.Apply(muts); return len(muts) })
	return err
}

func (s *tracedStore) Delete(table, key string) (err error) {
	s.t.child("store.put", func() int { err = s.Store.Delete(table, key); return 1 })
	return err
}

func (s *tracedStore) Get(table, key string, out any) (err error) {
	s.t.child("store.get", func() int { err = s.Store.Get(table, key, out); return 1 })
	return err
}

func (s *tracedStore) Scan(table string, fn func(string, []byte) bool) {
	s.t.child("store.scan", func() int {
		n := 0
		s.Store.Scan(table, func(k string, v []byte) bool { n++; return fn(k, v) })
		return n
	})
}

func (s *tracedStore) ScanPrefix(table, prefix string, fn func(string, []byte) bool) {
	s.t.child("store.scan", func() int {
		n := 0
		s.Store.ScanPrefix(table, prefix, func(k string, v []byte) bool { n++; return fn(k, v) })
		return n
	})
}

func (s *tracedStore) ScanRange(table, start, end string, limit int, fn func(string, []byte) bool) (visited int) {
	s.t.child("store.scan", func() int {
		visited = s.Store.ScanRange(table, start, end, limit, fn)
		return visited
	})
	return visited
}

// Stats forwards the durability counters the service exports on /metrics.
func (s *tracedStore) Stats() store.Stats {
	if sp, ok := s.Store.(interface{ Stats() store.Stats }); ok {
		return sp.Stats()
	}
	return store.Stats{}
}

// tracedStrategy and tracedPlatform time an engine's calls into its
// strategy and crowd platform.
type tracedStrategy struct {
	strategy.Strategy
	t *tracer
}

func (s *tracedStrategy) Choose(v strategy.View, batch int, r *rand.Rand) (out []int) {
	s.t.child("strategy.choose", func() int { out = s.Strategy.Choose(v, batch, r); return len(out) })
	return out
}

type tracedPlatform struct {
	crowd.Platform
	t *tracer
}

func (p *tracedPlatform) Step() (n int) {
	p.t.child("crowd.step", func() int { n = p.Platform.Step(); return n })
	return n
}

// itagd's default flag values, applied to the in-process stack.
var defaultStoreOpts = store.Options{
	SyncEvery: 1, SegmentBytes: store.DefaultSegmentBytes, AutoCompact: 64 << 20,
}

const (
	defaultSeed         = 42
	defaultRouteTimeout = 30 * time.Second
)

// startInProcess hosts the deployment in this process with every layer
// boundary traced.
func startInProcess(root string, clustered bool, t *tracer) (*deployment, error) {
	quiet := log.New(io.Discard, "", log.LstdFlags) // itagd logs requests by default
	dep := &deployment{}
	var closers []func()
	dep.close = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	serve := func(ln net.Listener, h http.Handler) {
		srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, WriteTimeout: 60 * time.Second, IdleTimeout: 2 * time.Minute}
		go srv.Serve(ln)
		closers = append(closers, func() { srv.Close() })
	}
	listen := func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

	n := 1
	if clustered {
		n = 3
	}
	var apiLns []net.Listener
	var members []cluster.Member
	for i := 0; i < n; i++ {
		ln, err := listen()
		if err != nil {
			dep.close()
			return nil, err
		}
		apiLns = append(apiLns, ln)
		dep.APIs = append(dep.APIs, "http://"+ln.Addr().String())
		dep.Dirs = append(dep.Dirs, filepath.Join(root, fmt.Sprintf("node%d", i)))
		members = append(members, cluster.Member{Slot: slotNames[i], Addr: dep.APIs[i]})
	}
	for i := 0; i < n; i++ {
		if err := os.MkdirAll(dep.Dirs[i], 0o755); err != nil {
			dep.close()
			return nil, err
		}
		var api, prom http.Handler
		if clustered {
			ring, err := cluster.NewRing(members)
			if err != nil {
				dep.close()
				return nil, err
			}
			tr := http.DefaultTransport.(*http.Transport).Clone()
			node, err := cluster.New(cluster.Options{
				Slot: slotNames[i], Ring: ring, Dir: dep.Dirs[i], Store: defaultStoreOpts,
				Seed: defaultSeed, Logger: quiet, Replicas: 2, PullInterval: 250 * time.Millisecond,
				StalenessBound: 1024, RouteTimeout: defaultRouteTimeout,
				Quorum: true, QuorumTimeout: 2 * time.Second,
				HTTPClient: &http.Client{Timeout: 30 * time.Second, Transport: t.clusterTransport(tr)},
			})
			if err != nil {
				dep.close()
				return nil, err
			}
			closers = append(closers, func() { node.Close() })
			api, prom = node.Handler(), node.PromHandler()
		} else {
			db, err := store.Open(filepath.Join(dep.Dirs[i], "itag.wal"), defaultStoreOpts)
			if err != nil {
				dep.close()
				return nil, err
			}
			closers = append(closers, func() { db.Close() })
			svc := core.NewServiceWith(store.NewCatalog(&tracedStore{Store: db, t: t}), defaultSeed, core.ServiceOptions{})
			closers = append(closers, svc.Close)
			srv := server.NewWith(svc, server.Options{Logger: quiet, RouteTimeout: defaultRouteTimeout})
			api, prom = srv, srv.PromHandler()
		}
		serve(apiLns[i], t.handler(api))
		dbg, err := listen()
		if err != nil {
			dep.close()
			return nil, err
		}
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", prom)
		serve(dbg, mux)
		dep.Debugs = append(dep.Debugs, "http://"+dbg.Addr().String())
	}
	return dep, nil
}

// layers turns the spans of a traced manual run into per-layer metrics.
func (t *tracer) layers(res *result, spans []span, rounds int, exportRows int64) {
	byName := map[string][]span{}
	byID := make(map[uint64]span, len(spans))
	children := map[uint64][]span{}
	handlers := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		if strings.HasPrefix(s.Name, "server.") && s.Req != "" {
			handlers[s.Req] = s
		}
	}
	lay := &res.Layers
	// A cluster node owns its stores, so there are no store spans to
	// subtract and self time is left unreported.
	storeTraced := len(byName["store.put"])+len(byName["store.get"]) > 0
	for _, route := range []string{"request_task", "submit_task", "get_project", "get_resource", "export"} {
		hs := byName["server."+route]
		d := summarize(durations(hs))
		res.add(lay, "server.handler_p50_ms."+route, "ms", d.P50, d.String())
		res.add(lay, "server.handler_p99_ms."+route, "ms", d.P99, "")
		if !storeTraced {
			continue
		}
		self := make([]float64, len(hs))
		for i, h := range hs {
			self[i] = h.dur() - covered(h, children[h.ID])
		}
		res.add(lay, "server.self_ms."+route, "ms", median(self), "median handler time outside store calls")
	}
	var outside []float64
	for _, c := range byName["client.http"] {
		if h, ok := handlers[c.Req]; ok {
			outside = append(outside, c.dur()-h.dur())
		}
	}
	res.add(lay, "client.outside_handler_p50_ms", "ms", median(outside), fmt.Sprintf("n=%d", len(outside)))

	puts := summarize(durations(byName["store.put"]))
	res.add(lay, "store.put_p50_ms", "ms", puts.P50, puts.String())
	res.add(lay, "store.put_p99_ms", "ms", puts.P99, "")
	roundPuts := 0
	for _, p := range byName["store.put"] {
		if parent, ok := byID[p.Parent]; ok && (parent.Name == "server.request_task" || parent.Name == "server.submit_task") {
			roundPuts++
		}
	}
	res.add(lay, "store.puts_per_op", "count", float64(roundPuts)/float64(max(rounds, 1)), "store writes per completed tagger round")
	gets := summarize(durations(byName["store.get"]))
	res.add(lay, "store.get_p50_ms", "ms", gets.P50, gets.String())
	scans := summarize(durations(byName["store.scan"]))
	res.add(lay, "store.scan_p50_ms", "ms", scans.P50, scans.String())
	visited := 0
	for _, s := range byName["store.scan"] {
		if parent, ok := byID[s.Parent]; ok && parent.Name == "server.export" {
			visited += s.N
		}
	}
	res.add(lay, "store.keys_visited_per_row", "count", float64(visited)/float64(max(exportRows, 1)), fmt.Sprintf("%d keys visited for %d export rows", visited, exportRows))

	push := summarize(durations(byName["cluster.push"]))
	res.add(lay, "cluster.push_rtt_p50_ms", "ms", push.P50, push.String())
	res.add(lay, "cluster.push_rtt_p99_ms", "ms", push.P99, "")
	pull := summarize(durations(byName["cluster.pull"]))
	res.add(lay, "cluster.pull_rtt_p50_ms", "ms", pull.P50, pull.String())
}

func durations(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.dur()
	}
	return out
}

// covered is how much of parent's interval its children cover, in ms
// (overlapping children are counted once).
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curStart, curEnd int64 = 0, -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			total += curEnd - curStart
			curStart, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	total += curEnd - curStart
	return float64(total) / 1e6
}

// dump writes the spans as JSON lines under the work directory.
func (t *tracer) dump(work, name string, spans []span) string {
	path := filepath.Join(work, "spans-"+name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		_ = enc.Encode(s)
	}
	_ = w.Flush()
	return path
}
