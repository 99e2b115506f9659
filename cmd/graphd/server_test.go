package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/graphpart/graphpart/internal/graph"
	"github.com/graphpart/graphpart/internal/obs"
	"github.com/graphpart/graphpart/internal/rng"
)

// testGraph builds a small connected graph for server tests.
func testGraph(seed uint64, n, extra int) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		_ = b.AddEdge(graph.Vertex(i), graph.Vertex(r.Intn(i)))
	}
	for b.NumEdgesAdded() < n-1+extra {
		u := graph.Vertex(r.Intn(n))
		v := graph.Vertex(r.Intn(n))
		if u != v {
			_ = b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// newTestServer serves a small graph over httptest.
func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(testGraph(5, 120, 360), "test-graph", 42)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// numTestEdges is the served test graph's edge count (the builder dedups,
// so it is computed, not assumed).
func numTestEdges() int { return testGraph(5, 120, 360).NumEdges() }

// getJSON fetches a URL and decodes the JSON body into a map.
func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d, want %d (body: %s)", url, resp.StatusCode, wantStatus, body)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return out
}

// postJSON posts a JSON body and decodes the JSON response.
func postJSON(t *testing.T, url string, body any, wantStatus int) map[string]any {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: status %d, want %d (body: %s)", url, resp.StatusCode, wantStatus, b)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
	return out
}

func TestEndpoints(t *testing.T) {
	_, ts := newTestServer(t)

	t.Run("Healthz", func(t *testing.T) {
		got := getJSON(t, ts.URL+"/healthz", http.StatusOK)
		if got["status"] != "ok" {
			t.Fatalf("healthz = %v", got)
		}
	})

	t.Run("Dataset", func(t *testing.T) {
		got := getJSON(t, ts.URL+"/dataset", http.StatusOK)
		if got["vertices"].(float64) != 120 || int(got["edges"].(float64)) != numTestEdges() {
			t.Fatalf("dataset shape = %v/%v, want 120/%d", got["vertices"], got["edges"], numTestEdges())
		}
	})

	t.Run("Families", func(t *testing.T) {
		got := getJSON(t, ts.URL+"/families", http.StatusOK)
		fams := got["families"].([]any)
		if len(fams) < 5 {
			t.Fatalf("only %d families registered: %v", len(fams), fams)
		}
		seen := map[string]bool{}
		for _, f := range fams {
			seen[f.(string)] = true
		}
		if !seen["tlp"] || !seen["random"] {
			t.Fatalf("families missing tlp/random: %v", fams)
		}
	})

	t.Run("PartitionEdgeLookup", func(t *testing.T) {
		got := getJSON(t, ts.URL+"/partition?family=tlp&p=4&edge=10", http.StatusOK)
		part := int(got["partition"].(float64))
		if part < 0 || part >= 4 {
			t.Fatalf("edge 10 in partition %d, want [0,4)", part)
		}
		// The same lookup is served from cache and must be stable.
		again := getJSON(t, ts.URL+"/partition?family=tlp&p=4&edge=10", http.StatusOK)
		if int(again["partition"].(float64)) != part {
			t.Fatalf("lookup unstable: %v then %v", part, again["partition"])
		}
	})

	t.Run("PartitionVertexLookup", func(t *testing.T) {
		got := getJSON(t, ts.URL+"/partition?family=tlp&p=4&vertex=7", http.StatusOK)
		parts := got["partitions"].([]any)
		if len(parts) < 1 || len(parts) > 4 {
			t.Fatalf("vertex 7 replicated on %d partitions: %v", len(parts), parts)
		}
	})

	t.Run("PartitionDefaultLoads", func(t *testing.T) {
		got := getJSON(t, ts.URL+"/partition?family=tlp&p=4", http.StatusOK)
		loads := got["loads"].([]any)
		if len(loads) != 4 {
			t.Fatalf("loads = %v, want 4 entries", loads)
		}
		sum := 0.0
		for _, l := range loads {
			sum += l.(float64)
		}
		if int(sum) != numTestEdges() {
			t.Fatalf("loads sum to %v, want all %d edges", sum, numTestEdges())
		}
	})

	t.Run("Stats", func(t *testing.T) {
		got := getJSON(t, ts.URL+"/stats?family=tlp&p=4", http.StatusOK)
		rf := got["replication_factor"].(float64)
		if rf < 1 {
			t.Fatalf("replication factor %v < 1", rf)
		}
		if got["balance"].(float64) < 1 {
			t.Fatalf("balance %v < 1", got["balance"])
		}
	})

	t.Run("StatsRefined", func(t *testing.T) {
		// A refined random partitioning is a distinct cache entry whose RF
		// must be strictly below the unrefined one on this graph.
		base := getJSON(t, ts.URL+"/stats?family=random&p=4", http.StatusOK)
		got := getJSON(t, ts.URL+"/stats?family=random&p=4&refine=true", http.StatusOK)
		if got["refine"] != true || base["refine"] != false {
			t.Fatalf("refine flags: base %v, refined %v", base["refine"], got["refine"])
		}
		rfBase := base["replication_factor"].(float64)
		rfRefined := got["replication_factor"].(float64)
		if rfRefined >= rfBase {
			t.Fatalf("refined rf %v not below unrefined %v", rfRefined, rfBase)
		}
		rs := got["refine_stats"].(map[string]any)
		if rs["rf_after"].(float64) != rfRefined {
			t.Fatalf("refine_stats rf_after %v != served rf %v", rs["rf_after"], rfRefined)
		}
		if rs["replicas_removed"].(float64) < 1 {
			t.Fatalf("refinement removed no replicas: %v", rs)
		}
	})

	t.Run("BadRequests", func(t *testing.T) {
		getJSON(t, ts.URL+"/partition?family=nosuch&p=4", http.StatusBadRequest)
		getJSON(t, ts.URL+"/partition?family=tlp&p=1", http.StatusBadRequest)
		getJSON(t, ts.URL+"/partition?family=tlp&p=4&edge=99999", http.StatusBadRequest)
		getJSON(t, ts.URL+"/stats?family=tlp&p=notanumber", http.StatusBadRequest)
		getJSON(t, ts.URL+"/stats?family=tlp&p=4&refine=maybe", http.StatusBadRequest)
		postJSON(t, ts.URL+"/run", map[string]any{"program": "nosuch"}, http.StatusBadRequest)
		postJSON(t, ts.URL+"/run", map[string]any{"transport": "carrier-pigeon"}, http.StatusBadRequest)
		postJSON(t, ts.URL+"/run", map[string]any{"max_supersteps": -1}, http.StatusBadRequest)
	})
}

// TestRunEndpoint exercises /run over both transports with sequential
// verification: the daemon must report an exact bit-level match.
func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	for _, transport := range []string{"mem", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			got := postJSON(t, ts.URL+"/run", map[string]any{
				"program":           "pagerank",
				"family":            "tlp",
				"p":                 4,
				"max_supersteps":    30,
				"transport":         transport,
				"verify_sequential": true,
				"top":               3,
			}, http.StatusOK)
			verify := got["verify"].(map[string]any)
			if verify["match"] != true {
				t.Fatalf("verify = %v, want exact match", verify)
			}
			if verify["max_abs_diff"].(float64) != 0 {
				t.Fatalf("max_abs_diff = %v, want exactly 0", verify["max_abs_diff"])
			}
			if got["supersteps"].(float64) < 1 || got["messages"].(float64) < 1 {
				t.Fatalf("implausible run stats: %v", got)
			}
			if len(got["top"].([]any)) != 3 {
				t.Fatalf("top = %v, want 3 entries", got["top"])
			}
			cb := got["control_bytes"].(float64)
			if transport == "tcp" && cb == 0 {
				t.Fatal("tcp run reported zero control bytes")
			}
			if transport == "mem" && cb != 0 {
				t.Fatalf("mem run reported %v control bytes", cb)
			}
		})
	}
}

// TestRunRejectsOversizedBody posts a 2 MiB /run body: the daemon must
// answer 413 without decoding it and keep serving afterwards.
func TestRunRejectsOversizedBody(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"program":"` + strings.Repeat("a", 2<<20) + `"}`
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /run: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /run: status %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
	if got := getJSON(t, ts.URL+"/healthz", http.StatusOK); got["status"] != "ok" {
		t.Fatalf("healthz after oversized body = %v", got)
	}
}

// TestRunRefinedMovesFewerMessages checks the /run refine option end to end:
// the refined entry must execute the same program with strictly fewer
// synchronisation messages than the unrefined one.
func TestRunRefinedMovesFewerMessages(t *testing.T) {
	_, ts := newTestServer(t)
	run := func(refineFlag bool) float64 {
		got := postJSON(t, ts.URL+"/run", map[string]any{
			"program":        "pagerank",
			"family":         "random",
			"p":              4,
			"refine":         refineFlag,
			"max_supersteps": 8,
		}, http.StatusOK)
		if got["refine"] != refineFlag {
			t.Fatalf("response refine = %v, want %v", got["refine"], refineFlag)
		}
		return got["messages"].(float64)
	}
	base, refined := run(false), run(true)
	if refined >= base {
		t.Fatalf("refined run moved %v messages, unrefined %v; want strictly fewer", refined, base)
	}
}

// TestRunByteAccounting checks a tcp run reports exactly the mem run's
// payload bytes plus one frame header per message.
func TestRunByteAccounting(t *testing.T) {
	_, ts := newTestServer(t)
	req := func(transport string) map[string]any {
		return postJSON(t, ts.URL+"/run", map[string]any{
			"program": "components", "family": "dbh", "p": 4, "transport": transport,
		}, http.StatusOK)
	}
	mem, tcp := req("mem"), req("tcp")
	if mem["messages"] != tcp["messages"] {
		t.Fatalf("message counts differ: mem %v, tcp %v", mem["messages"], tcp["messages"])
	}
	want := mem["bytes"].(float64) + 5*mem["messages"].(float64)
	if tcp["bytes"].(float64) != want {
		t.Fatalf("tcp bytes = %v, want mem %v + 5 per message = %v", tcp["bytes"], mem["bytes"], want)
	}
}

// TestConcurrentMixedRequests hammers the daemon with every endpoint at
// once — lookups, stats, runs over both transports, metrics — and checks
// each response; run under -race this is the daemon's thread-safety test.
func TestConcurrentMixedRequests(t *testing.T) {
	_, ts := newTestServer(t)
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	post := func(body map[string]any) {
		defer wg.Done()
		raw, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(raw))
		if err != nil {
			errc <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			errc <- fmt.Errorf("POST /run %v: status %d: %s", body, resp.StatusCode, b)
		}
	}
	get := func(path string) {
		defer wg.Done()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			errc <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			errc <- fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, b)
		}
	}
	for i := 0; i < 6; i++ {
		// Mixed families and p values: some collide on one cache entry
		// (single materialisation), some fill fresh entries concurrently.
		wg.Add(6)
		go get(fmt.Sprintf("/partition?family=tlp&p=4&edge=%d", i))
		go get(fmt.Sprintf("/partition?family=random&p=%d&vertex=%d", 2+i%3, i))
		go get("/stats?family=tlp&p=4")
		go get("/metrics")
		go post(map[string]any{"program": "pagerank", "family": "tlp", "p": 4, "transport": "mem", "max_supersteps": 10})
		go post(map[string]any{"program": "components", "family": "random", "p": 3, "transport": "tcp"})
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestMetricsEndpoint checks request counters flow into the obs registry
// snapshot served by /metrics. Counters are record-only and gated on the
// telemetry flag, so the test turns recording on.
func TestMetricsEndpoint(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	_, ts := newTestServer(t)
	getJSON(t, ts.URL+"/healthz", http.StatusOK)
	got := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	metrics := got["metrics"].(map[string]any)
	counters := metrics["counters"].(map[string]any)
	if counters["graphd.requests"].(float64) < 1 {
		t.Fatalf("graphd.requests = %v, want >= 1", counters["graphd.requests"])
	}
}
