package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	graphpart "github.com/graphpart/graphpart"
)

// TestMain lets this test binary double as a cluster worker: the tcp
// transport re-executes os.Executable() once per machine.
func TestMain(m *testing.M) {
	if graphpart.MaybeWorker() {
		return
	}
	os.Exit(m.Run())
}

func TestLoadGraphModes(t *testing.T) {
	if _, err := loadGraph("", "", 1); err == nil {
		t.Fatal("no input accepted")
	}
	if _, err := loadGraph("x", "G1", 1); err == nil {
		t.Fatal("both inputs accepted")
	}
	if _, err := loadGraph("", "G99", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := loadGraph(path, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("loaded %d edges", g.NumEdges())
	}
	if _, err := loadGraph(filepath.Join(t.TempDir(), "missing.txt"), "", 1); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestAlgoHelpNamesEveryFamily checks the -algo help (algoNames joined by
// "|") lists every registry key and tlpr, each once.
func TestAlgoHelpNamesEveryFamily(t *testing.T) {
	listed := algoNames()
	want := []string{"tlpr"}
	for key := range graphpart.AllPartitioners(1) {
		want = append(want, key)
	}
	if len(listed) != len(want) {
		t.Fatalf("-algo help lists %v, want the %d names %v", listed, len(want), want)
	}
	for _, key := range want {
		if !slices.Contains(listed, key) {
			t.Errorf("-algo help %v leaves out %q", listed, key)
		}
	}
}

func TestRunStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	var lines []byte
	// 3 joined 4-cliques: enough structure for every streaming algorithm.
	for c := 0; c < 3; c++ {
		base := c * 4
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				lines = append(lines, []byte(fmt.Sprintf("%d %d\n", base+i, base+j))...)
			}
		}
		if c > 0 {
			lines = append(lines, []byte(fmt.Sprintf("%d %d\n", base-1, base))...)
		}
	}
	if err := os.WriteFile(path, lines, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, algo := range []string{"hdrf", "random", "dbh", "tlpsw"} {
		var out bytes.Buffer
		if err := runStream(&out, path, "", algo, 3, 7, 8, false); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		got := out.String()
		for _, want := range []string{"streaming, no CSR", "replication factor:", "live heap growth:"} {
			if !strings.Contains(got, want) {
				t.Fatalf("%s output missing %q:\n%s", algo, want, got)
			}
		}
		if algo == "tlpsw" && !strings.Contains(got, "window: peak") {
			t.Fatalf("tlpsw output missing window stats:\n%s", got)
		}
	}

	// Dataset-backed source streams too.
	var out bytes.Buffer
	if err := runStream(&out, "", "G1", "greedy", 4, 7, 0, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "replication factor:") {
		t.Fatalf("dataset stream output incomplete:\n%s", out.String())
	}

	// Error paths: offline algorithms and the vertex streamers, unknown
	// algorithms, bad inputs.
	for _, algo := range []string{"metis", "ldg", "fennel"} {
		if err := runStream(io.Discard, path, "", algo, 2, 7, 0, false); err == nil ||
			!strings.Contains(err.Error(), "needs the whole graph in memory") {
			t.Fatalf("%s with -stream: %v", algo, err)
		}
	}
	if err := runStream(io.Discard, path, "", "nope", 2, 7, 0, false); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := runStream(io.Discard, "", "", "hdrf", 2, 7, 0, false); err == nil {
		t.Fatal("no input accepted")
	}
	if err := runStream(io.Discard, path, "G1", "hdrf", 2, 7, 0, false); err == nil {
		t.Fatal("both inputs accepted")
	}
}

func TestRunEngine(t *testing.T) {
	g, err := loadGraph("", "G1", 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := graphpart.NewTLP(graphpart.TLPOptions{Seed: 7}).Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for prog, want := range map[string]string{
		"pagerank": "top ranks:",
		"cc":       "connected components:",
	} {
		var out bytes.Buffer
		if _, err := runEngine(&out, g, a, prog, 10, "mem"); err != nil {
			t.Fatalf("%s: %v", prog, err)
		}
		text := out.String()
		for _, needle := range []string{"engine:", "supersteps:", "messages:", "wire bytes:", want} {
			if !strings.Contains(text, needle) {
				t.Fatalf("%s output missing %q:\n%s", prog, needle, text)
			}
		}
	}
	var out bytes.Buffer
	if _, err := runEngine(&out, g, a, "bogus", 10, "mem"); err == nil {
		t.Fatal("unknown program accepted")
	}
	if _, err := runEngine(&out, g, a, "pagerank", 10, "carrier-pigeon"); err == nil {
		t.Fatal("unknown transport accepted")
	}
}

// TestRunEngineClusterTransport drives the tcp transport path: a real
// process-per-machine cluster run whose output must verify bit-identical
// against the sequential oracle, with a merged multi-process trace when
// telemetry is on.
func TestRunEngineClusterTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	g, err := loadGraph("", "G1", 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := graphpart.NewTLP(graphpart.TLPOptions{Seed: 7}).Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	wasEnabled := graphpart.TelemetryEnabled()
	graphpart.EnableTelemetry()
	t.Cleanup(func() {
		if !wasEnabled {
			graphpart.DisableTelemetry()
		}
	})
	var out bytes.Buffer
	ct, err := runEngine(&out, g, a, "pagerank", 10, "tcp")
	if err != nil {
		t.Fatalf("tcp transport: %v", err)
	}
	text := out.String()
	for _, needle := range []string{"one process per machine", "sequential verify: exact bit-level match", "cluster telemetry:"} {
		if !strings.Contains(text, needle) {
			t.Fatalf("cluster output missing %q:\n%s", needle, text)
		}
	}
	if ct == nil || len(ct.Workers) != 4 {
		t.Fatalf("expected 4 worker snapshots, got %+v", ct)
	}
	var trace bytes.Buffer
	if err := writeTelemetryTo(&trace, ct); err != nil {
		t.Fatalf("merged trace: %v", err)
	}
}

// writeTelemetryTo exercises the merged-trace writer against a buffer.
func writeTelemetryTo(w io.Writer, ct *graphpart.ClusterTelemetry) error {
	return ct.WriteChromeTrace(w)
}

// TestRunBodyRejectsBadChoicesFirst checks that an unknown -run, -transport
// or -report value is named before the input is touched: with a missing
// -input file the error must name the flag value, not the load failure.
func TestRunBodyRejectsBadChoicesFirst(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.txt")
	for _, tc := range []struct {
		runProg, transport, report string
		stream                     bool
		bad                        string
	}{
		{"bogus", "mem", "", false, "bogus"},
		{"bogus", "mem", "", true, "bogus"},
		{"pagerank", "carrier-pigeon", "", false, "carrier-pigeon"},
		{"", "carrier-pigeon", "", false, "carrier-pigeon"},
		{"", "mem", "yaml", false, "yaml"},
	} {
		_, err := runBody(missing, "", "tlp", 4, 0.5, 1, false, false, tc.report,
			tc.stream, 0, false, tc.runProg, 10, tc.transport)
		if err == nil || !strings.Contains(err.Error(), tc.bad) {
			t.Errorf("%+v: error %v does not name %q", tc, err, tc.bad)
		}
	}
}
