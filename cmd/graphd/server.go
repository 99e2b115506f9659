package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"github.com/graphpart/graphpart/internal/engine"
	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/obs"
	"github.com/graphpart/graphpart/internal/wire"
)

// server is the daemon's HTTP surface over one loaded graph.
type server struct {
	g     *graph.Graph
	desc  string
	seed  uint64
	cache *partitionCache

	requests *obs.Counter
	errors   *obs.Counter
	runs     *obs.Counter

	// clusterMu guards the cached telemetry of the most recent traced
	// cluster run, served by /trace and merged into /metrics.
	clusterMu       sync.Mutex
	lastCluster     *wire.ClusterTelemetry
	lastClusterDesc map[string]any

	// testHook, when set, runs inside /run after the engine finishes and
	// before the response is written; tests use it to hold a request
	// in-flight across a shutdown.
	testHook func()
}

func newServer(g *graph.Graph, desc string, seed uint64) *server {
	return &server{
		g:        g,
		desc:     desc,
		seed:     seed,
		cache:    newPartitionCache(g, seed),
		requests: obs.Default.Counter("graphd.requests"),
		errors:   obs.Default.Counter("graphd.errors"),
		runs:     obs.Default.Counter("graphd.runs"),
	}
}

// Handler returns the daemon's routed and instrumented HTTP handler.
func (s *server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /dataset", s.handleDataset)
	mux.HandleFunc("GET /families", s.handleFamilies)
	mux.HandleFunc("GET /partition", s.handlePartition)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /trace", s.handleTrace)
	return s.instrument(mux)
}

// statusRecorder captures the response status for the request span.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps the mux with per-request obs spans and counters.
func (s *server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := obs.Start("graphd.request",
			obs.String("method", r.Method), obs.String("path", r.URL.Path))
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.requests.Add(1)
		if rec.status >= 400 {
			s.errors.Add(1)
		}
		sp.EndWith(obs.Int("status", rec.status))
	})
}

// writeJSON writes v with a status code; encoding failures surface as 500s.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes a JSON error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) handleDataset(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset":              s.desc,
		"seed":                 s.seed,
		"vertices":             s.g.NumVertices(),
		"edges":                s.g.NumEdges(),
		"avg_degree":           s.g.AvgDegree(),
		"max_degree":           s.g.MaxDegree(),
		"partitionings_cached": s.cache.size(),
	})
}

func (s *server) handleFamilies(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"families": s.cache.families()})
}

// familyP parses the family, p and refine query parameters shared by
// /partition and /stats and resolves the cache entry.
func (s *server) familyP(w http.ResponseWriter, r *http.Request) (*cacheEntry, string, int, bool, bool) {
	family := r.URL.Query().Get("family")
	if family == "" {
		family = "tlp"
	}
	p := 8
	if ps := r.URL.Query().Get("p"); ps != "" {
		v, err := strconv.Atoi(ps)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad p %q: %v", ps, err)
			return nil, "", 0, false, false
		}
		p = v
	}
	refineAfter := false
	if rs := r.URL.Query().Get("refine"); rs != "" {
		v, err := strconv.ParseBool(rs)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad refine %q: %v", rs, err)
			return nil, "", 0, false, false
		}
		refineAfter = v
	}
	e, err := s.cache.get(family, p, refineAfter)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, "", 0, false, false
	}
	return e, family, p, refineAfter, true
}

func (s *server) handlePartition(w http.ResponseWriter, r *http.Request) {
	e, family, p, refined, ok := s.familyP(w, r)
	if !ok {
		return
	}
	resp := map[string]any{"family": family, "p": p, "seed": s.seed, "refine": refined}
	q := r.URL.Query()
	switch {
	case q.Get("edge") != "":
		id, err := strconv.Atoi(q.Get("edge"))
		if err != nil || id < 0 || id >= s.g.NumEdges() {
			writeError(w, http.StatusBadRequest, "edge %q out of range [0,%d)", q.Get("edge"), s.g.NumEdges())
			return
		}
		part, _ := e.a.PartitionOf(graph.EdgeID(id))
		edge := s.g.Edge(graph.EdgeID(id))
		resp["edge"] = id
		resp["u"], resp["v"] = edge.U, edge.V
		resp["partition"] = part
	case q.Get("vertex") != "":
		id, err := strconv.Atoi(q.Get("vertex"))
		if err != nil || id < 0 || id >= s.g.NumVertices() {
			writeError(w, http.StatusBadRequest, "vertex %q out of range [0,%d)", q.Get("vertex"), s.g.NumVertices())
			return
		}
		resp["vertex"] = id
		resp["degree"] = s.g.Degree(graph.Vertex(id))
		resp["partitions"] = vertexPartitions(s.g, e, graph.Vertex(id))
	default:
		resp["loads"] = e.a.Loads()
	}
	writeJSON(w, http.StatusOK, resp)
}

// vertexPartitions returns the sorted set of partitions holding a replica
// of v — the partitions of its incident edges.
func vertexPartitions(g *graph.Graph, e *cacheEntry, v graph.Vertex) []int {
	seen := make(map[int]bool)
	for _, eid := range g.IncidentEdges(v) {
		if k, ok := e.a.PartitionOf(eid); ok {
			seen[k] = true
		}
	}
	out := make([]int, 0, len(seen))
	for k := range seen {
		out = append(out, k) //lint:ignore GL001 sorted on the next line
	}
	sort.Ints(out)
	return out
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	e, family, p, refined, ok := s.familyP(w, r)
	if !ok {
		return
	}
	m := e.metrics
	resp := map[string]any{
		"family":             family,
		"p":                  p,
		"seed":               s.seed,
		"refine":             refined,
		"replication_factor": m.ReplicationFactor,
		"balance":            m.Balance,
		"max_load":           m.MaxLoad,
		"min_load":           m.MinLoad,
		"spanned_vertices":   m.SpannedVertices,
		"total_replicas":     m.TotalReplicas,
		"loads":              e.a.Loads(),
	}
	if refined {
		resp["refine_stats"] = map[string]any{
			"passes":           e.refined.Passes,
			"moves":            e.refined.Moves,
			"swaps":            e.refined.Swaps,
			"replicas_removed": e.refined.ReplicasRemoved,
			"rf_before":        e.refined.RFBefore,
			"rf_after":         e.refined.RFAfter,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// runRequest is the /run request body.
type runRequest struct {
	Program          string  `json:"program"`
	Family           string  `json:"family"`
	P                int     `json:"p"`
	Refine           bool    `json:"refine"`
	MaxSupersteps    int     `json:"max_supersteps"`
	Damping          float64 `json:"damping"`
	Tolerance        float64 `json:"tolerance"`
	Source           int     `json:"source"`
	Transport        string  `json:"transport"`
	VerifySequential bool    `json:"verify_sequential"`
	Top              int     `json:"top"`
}

// vertexValue is one entry of a run's top-values list.
type vertexValue struct {
	Vertex int     `json:"vertex"`
	Value  float64 `json:"value"`
}

// maxRunSupersteps caps requested superstep budgets.
const maxRunSupersteps = 10000

// maxRunBodyBytes caps the /run request body; a real request is a few
// hundred bytes.
const maxRunBodyBytes = 1 << 20

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRunBodyBytes)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Family == "" {
		req.Family = "tlp"
	}
	if req.P == 0 {
		req.P = 8
	}
	if req.MaxSupersteps == 0 {
		req.MaxSupersteps = 50
	}
	if req.MaxSupersteps < 1 || req.MaxSupersteps > maxRunSupersteps {
		writeError(w, http.StatusBadRequest, "max_supersteps %d out of range [1,%d]", req.MaxSupersteps, maxRunSupersteps)
		return
	}
	prog, err := s.buildProgram(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	e, err := s.cache.get(req.Family, req.P, req.Refine)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	var tr engine.Transport
	var controlBytes int64
	transport := req.Transport
	if transport == "" {
		transport = "mem"
	}
	var tcp *wire.TCPTransport
	switch transport {
	case "mem":
		tr = engine.NewMemTransport(req.P)
	case "tcp":
		tcp, err = wire.NewTCPTransport(req.P)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "tcp mesh: %v", err)
			return
		}
		defer tcp.Close()
		tr = tcp
	case "cluster":
		// One OS process per machine over TCP; no in-process transport.
		// The daemon binary re-execs itself as workers (main calls
		// graphpart.MaybeWorker before anything else).
	default:
		writeError(w, http.StatusBadRequest, "unknown transport %q (want mem, tcp or cluster)", transport)
		return
	}

	sp := obs.Start("graphd.run",
		obs.String("program", prog.Name()), obs.String("family", req.Family),
		obs.Int("p", req.P), obs.String("transport", transport))
	start := obs.Now()
	var values []float64
	var stats engine.Stats
	var ct *wire.ClusterTelemetry
	if transport == "cluster" {
		values, stats, ct, err = wire.RunClusterTraced(s.g, e.a, prog, req.MaxSupersteps, nil)
	} else {
		e.engMu.Lock()
		values, stats, err = e.eng.RunWith(prog, req.MaxSupersteps, tr)
		e.engMu.Unlock()
	}
	seconds := obs.Since(start).Seconds()
	sp.EndWith(obs.Int("supersteps", stats.Supersteps), obs.Int64("bytes", stats.Bytes()))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "run: %v", err)
		return
	}
	s.runs.Add(1)
	if tcp != nil {
		controlBytes = tcp.ControlBytes()
	}
	if ct != nil {
		s.clusterMu.Lock()
		s.lastCluster = ct
		s.lastClusterDesc = map[string]any{
			"program":    prog.Name(),
			"family":     req.Family,
			"p":          req.P,
			"trace_id":   strconv.FormatUint(ct.TraceID, 16),
			"supersteps": stats.Supersteps,
		}
		s.clusterMu.Unlock()
	}

	resp := map[string]any{
		"program":            prog.Name(),
		"family":             req.Family,
		"p":                  req.P,
		"refine":             req.Refine,
		"seed":               s.seed,
		"transport":          transport,
		"supersteps":         stats.Supersteps,
		"messages":           stats.Messages(),
		"bytes":              stats.Bytes(),
		"control_bytes":      controlBytes,
		"replication_factor": e.eng.ReplicationFactor(),
		"seconds":            seconds,
	}
	if transport == "cluster" {
		cluster := map[string]any{"traced": ct != nil}
		if ct != nil {
			cluster["trace_id"] = strconv.FormatUint(ct.TraceID, 16)
			cluster["workers"] = len(ct.Workers)
			cluster["trace_url"] = "/trace"
		}
		resp["cluster"] = cluster
	}
	if req.Top > 0 {
		resp["top"] = topValues(values, req.Top)
	}
	if req.VerifySequential {
		want, wantSteps, err := engine.RunSequential(s.g, prog, req.MaxSupersteps)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "sequential verify: %v", err)
			return
		}
		maxDiff := 0.0
		for v := range want {
			if d := math.Abs(want[v] - values[v]); d > maxDiff {
				maxDiff = d
			}
		}
		resp["verify"] = map[string]any{
			"match":                 maxDiff == 0 && wantSteps == stats.Supersteps,
			"max_abs_diff":          maxDiff,
			"sequential_supersteps": wantSteps,
		}
	}
	if s.testHook != nil {
		s.testHook()
	}
	writeJSON(w, http.StatusOK, resp)
}

// buildProgram constructs the requested vertex program.
func (s *server) buildProgram(req runRequest) (engine.Program, error) {
	switch req.Program {
	case "", "pagerank":
		damping, tolerance := req.Damping, req.Tolerance
		if damping == 0 {
			damping = 0.85
		}
		if tolerance == 0 {
			tolerance = 1e-8
		}
		return engine.NewPageRank(s.g.NumVertices(), damping, tolerance), nil
	case "components":
		return &engine.Components{}, nil
	case "sssp":
		if req.Source < 0 || req.Source >= s.g.NumVertices() {
			return nil, fmt.Errorf("sssp source %d out of range [0,%d)", req.Source, s.g.NumVertices())
		}
		return &engine.SSSP{Source: graph.Vertex(req.Source)}, nil
	default:
		return nil, fmt.Errorf("unknown program %q (want pagerank, components or sssp)", req.Program)
	}
}

// topValues returns the n highest-valued vertices, ties broken by vertex id.
func topValues(values []float64, n int) []vertexValue {
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if values[idx[a]] != values[idx[b]] {
			return values[idx[a]] > values[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if n > len(idx) {
		n = len(idx)
	}
	out := make([]vertexValue, n)
	for i := 0; i < n; i++ {
		out[i] = vertexValue{Vertex: idx[i], Value: values[idx[i]]}
	}
	return out
}

// handleMetrics reports the telemetry registry. The top-level "metrics"
// snapshot covers only this coordinator process (labelled by "scope" and
// "process" so a TCP /run is not mistaken for whole-cluster numbers); after
// a traced cluster /run the "cluster" object adds the merged machine-
// labelled view across every worker snapshot.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"scope":             "process",
		"process":           "coordinator",
		"telemetry_enabled": obs.Enabled(),
		"metrics":           obs.Default.Snapshot(),
	}
	s.clusterMu.Lock()
	ct, desc := s.lastCluster, s.lastClusterDesc
	s.clusterMu.Unlock()
	if ct != nil {
		cluster := map[string]any{
			"scope":   "cluster",
			"run":     desc,
			"workers": len(ct.Workers),
			"merged":  ct.MergedMetrics(),
		}
		resp["cluster"] = cluster
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTrace serves the merged multi-process Chrome trace of the most
// recent traced cluster /run: one lane per process (coordinator + workers),
// barrier-skew instants per superstep. 404 until such a run happens.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.clusterMu.Lock()
	ct := s.lastCluster
	s.clusterMu.Unlock()
	if ct == nil {
		writeError(w, http.StatusNotFound,
			`no traced cluster run cached; POST /run with {"transport":"cluster"} while telemetry is enabled`)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// A mid-stream write failure means the client went away; the 200 header
	// is already on the wire, so there is nothing left to report.
	_ = ct.WriteChromeTrace(w)
}
