package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/graphpart/graphpart/internal/wire"
)

// TestMain lets cluster-tcp re-execute the test binary as its workers.
func TestMain(m *testing.M) {
	if wire.MaybeWorker() {
		return
	}
	os.Exit(m.Run())
}

// spec is the part of BENCHMARK.json the code must agree with.
type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesCode pins BENCHMARK.json to the names the code emits: valid
// names, within the metric limits, and the same sets on both sides.
func TestSpecMatchesCode(t *testing.T) {
	s := readSpec(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	var declared, e2e, layer []string
	for _, w := range s.Workloads {
		declared = append(declared, w.Name)
	}
	for _, m := range s.EndToEnd {
		e2e = append(e2e, m.Name+"/"+m.Unit)
	}
	for _, m := range s.PerLayer {
		layer = append(layer, m.Name+"/"+m.Unit)
	}
	for _, n := range append(append(append([]string{}, declared...), e2e...), layer...) {
		name, _, _ := strings.Cut(n, "/")
		if !valid.MatchString(name) {
			t.Errorf("name %q does not match %s", name, valid)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if len(e2e) < 1 || len(e2e) > 16 || len(layer) < 1 || len(layer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1-16 and 1-128", len(e2e), len(layer))
	}
	var codeE2E, codeLayer []string
	for _, m := range endToEnd {
		codeE2E = append(codeE2E, m.name+"/"+m.unit)
	}
	for _, m := range perLayer {
		codeLayer = append(codeLayer, m.name+"/"+m.unit)
	}
	sameSet(t, "workloads", declared, workloadNames())
	sameSet(t, "end-to-end metrics", e2e, codeE2E)
	sameSet(t, "per-layer metrics", layer, codeLayer)
}

func sameSet(t *testing.T, what string, a, b []string) {
	t.Helper()
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("%s differ:\nBENCHMARK.json %v\ncode           %v", what, a, b)
	}
}

// TestWorkloadsOnSmallDatasets runs every workload untraced and traced on
// gen.SmallDatasets: each completes, checks clean, and emits exactly the
// declared metrics.
func TestWorkloadsOnSmallDatasets(t *testing.T) {
	s := readSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := &config{seed: 7, seconds: 0.01, traced: traced, small: true}
			rep, err := runWorkload(w, cfg, io.Discard, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d",
					w.name, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			var got, declared []string
			for name := range rep.Metrics {
				got = append(got, name)
			}
			for _, m := range want {
				declared = append(declared, m.Name)
				if m.Unit != rep.Metrics[m.Name].Unit {
					t.Errorf("%s: %s unit %q, declared %q", w.name, m.Name, rep.Metrics[m.Name].Unit, m.Unit)
				}
			}
			sameSet(t, w.name+" metrics", got, declared)
			if !traced && rep.Metrics["pass_s"].Value <= 0 {
				t.Errorf("%s: pass_s %v", w.name, rep.Metrics["pass_s"].Value)
			}
			if traced && rep.Metrics["trace.coverage"].Value <= 0 {
				t.Errorf("%s: trace.coverage %v", w.name, rep.Metrics["trace.coverage"].Value)
			}
		}
	}
}

// TestCorruptedOutputsFail proves the checks bite: a corrupted assignment
// and corrupted vertex values drive the failure count above 0.
func TestCorruptedOutputsFail(t *testing.T) {
	for _, name := range []string{"tlp-large", "engine-mem"} {
		w, _ := workloadByName(name)
		cfg := &config{seed: 7, seconds: 0.01, small: true, corrupt: true}
		rep, err := runWorkload(w, cfg, io.Discard, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Correct || rep.Failed == 0 || float64(rep.Failed)/float64(rep.Attempted) <= 0 {
			t.Errorf("%s: corrupted outputs passed: correct=%v failed=%d of %d",
				name, rep.Correct, rep.Failed, rep.Attempted)
		}
	}
}

// TestRunRejectsBadArguments: a bad command line exits nonzero and prints
// no result.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "tlp-large", "--seconds", "0"},
		{"--workload", "tlp-large", "--trace", "2"},
		{"--bogus"},
	} {
		var out strings.Builder
		if code := run(args, &out, io.Discard); code == 0 || strings.Contains(out.String(), "{") {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}
