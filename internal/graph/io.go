package graph

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// edgeListScanBuf is the initial scanner buffer; it grows on demand up to
// maxEdgeListLineBytes, so typical "u v" lines never reallocate.
const edgeListScanBuf = 64 * 1024

// maxEdgeListLineBytes caps a single edge-list line. Real SNAP files keep
// lines tiny; the cap only bounds memory on corrupt or adversarial input.
// It is a variable so tests can lower it to exercise the error path.
var maxEdgeListLineBytes = 16 * 1024 * 1024

// NewEdgeListScanner returns a line scanner for SNAP-style edge lists whose
// buffer grows as needed up to the line cap, instead of bufio.Scanner's
// fixed 64 KiB default. Shared by the CSR loader and the streaming
// edge-list source so both accept the same inputs.
func NewEdgeListScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	// The scanner's effective cap is max(cap(buf), max), so the initial
	// buffer must not exceed the cap for the cap to bind.
	initial := edgeListScanBuf
	if initial > maxEdgeListLineBytes {
		initial = maxEdgeListLineBytes
	}
	sc.Buffer(make([]byte, initial), maxEdgeListLineBytes)
	return sc
}

// ScanEdgeListError converts a scanner error into a descriptive edge-list
// error. linesRead is the number of lines successfully scanned so far; the
// failing line is the next one. bufio.ErrTooLong in particular becomes an
// error naming the line number and the cap instead of "token too long".
func ScanEdgeListError(err error, linesRead int) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, bufio.ErrTooLong) {
		return fmt.Errorf("graph: line %d exceeds the %d-byte line cap", linesRead+1, maxEdgeListLineBytes)
	}
	return fmt.Errorf("graph: reading edge list: %w", err)
}

// ParseEdgeLine parses one edge-list line into its original (pre-remap)
// vertex ids. skip is true for blank lines and '#'/'%' comments. Extra
// columns (weights, timestamps) are ignored. Errors do not include the line
// number; callers add it.
func ParseEdgeLine(line string) (u, v int64, skip bool, err error) {
	line = strings.TrimSpace(line)
	if line == "" || line[0] == '#' || line[0] == '%' {
		return 0, 0, true, nil
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0, 0, false, fmt.Errorf("expected at least two fields, got %q", line)
	}
	u, err = strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return 0, 0, false, fmt.Errorf("bad vertex id %q: %w", fields[0], err)
	}
	v, err = strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, 0, false, fmt.Errorf("bad vertex id %q: %w", fields[1], err)
	}
	if u < 0 || v < 0 {
		return 0, 0, false, fmt.Errorf("negative vertex id")
	}
	return u, v, false, nil
}

// ReadEdgeList parses a whitespace-separated edge list from r into a graph.
//
// The format is the SNAP convention: one "u v" pair per line, lines starting
// with '#' or '%' are comments, blank lines are ignored, extra columns
// (weights, timestamps) are ignored. Vertex ids may be arbitrary
// non-negative integers; they are remapped to a dense [0, n) range in first-
// appearance order, and the mapping is returned so callers can translate
// results back to the original ids. Self-loops are dropped and duplicate
// edges collapsed, mirroring how the paper's datasets are usually cleaned
// into simple undirected graphs.
func ReadEdgeList(r io.Reader) (*Graph, *IDMap, error) {
	b := NewGrowingBuilder()
	idm := &IDMap{dense: map[int64]Vertex{}}
	sc := NewEdgeListScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		u, v, skip, err := ParseEdgeLine(sc.Text())
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		if skip || u == v {
			// Self-loops are dropped before interning so the id map only
			// names vertices the graph actually contains.
			continue
		}
		du := idm.intern(u)
		dv := idm.intern(v)
		if err := b.AddEdge(du, dv); err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
	}
	if err := ScanEdgeListError(sc.Err(), lineNo); err != nil {
		return nil, nil, err
	}
	return b.Build(), idm, nil
}

// WriteEdgeList writes g to w in the same "u v" per line format, using dense
// vertex ids, preceded by a comment header with the graph size.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# undirected simple graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges()); err != nil {
		return fmt.Errorf("graph: writing header: %w", err)
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return fmt.Errorf("graph: writing edge: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: flushing edge list: %w", err)
	}
	return nil
}

// LoadEdgeListFile reads an edge list from path. Files ending in ".gz" are
// transparently gunzipped.
func LoadEdgeListFile(path string) (*Graph, *IDMap, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: opening %s: %w", path, err)
	}
	defer func() { _ = f.Close() }()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: gunzipping %s: %w", path, err)
		}
		defer func() { _ = gz.Close() }()
		r = gz
	}
	g, idm, err := ReadEdgeList(r)
	if err != nil {
		return nil, nil, fmt.Errorf("graph: parsing %s: %w", path, err)
	}
	return g, idm, nil
}

// SaveEdgeListFile writes g to path as an edge list; ".gz" paths are
// gzip-compressed.
func SaveEdgeListFile(path string, g *Graph) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("graph: creating %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("graph: closing %s: %w", path, cerr)
		}
	}()
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	if err := WriteEdgeList(w, g); err != nil {
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return fmt.Errorf("graph: finishing gzip %s: %w", path, err)
		}
	}
	return nil
}

// IDMap records the mapping between original (external) vertex ids and the
// dense internal ids assigned during parsing.
type IDMap struct {
	dense map[int64]Vertex
}

// NewIDMap returns an empty mapping; ids are assigned densely in intern
// order. Used by streaming edge-list sources that remap ids without
// building a graph.
func NewIDMap() *IDMap {
	return &IDMap{dense: map[int64]Vertex{}}
}

// Intern returns the dense id for orig, assigning the next free id on first
// sight.
func (m *IDMap) Intern(orig int64) Vertex { return m.intern(orig) }

func (m *IDMap) intern(orig int64) Vertex {
	if d, ok := m.dense[orig]; ok {
		return d
	}
	d := Vertex(len(m.dense))
	m.dense[orig] = d
	return d
}

// Len returns the number of distinct original ids seen.
func (m *IDMap) Len() int { return len(m.dense) }

// Dense returns the dense id for an original id.
func (m *IDMap) Dense(orig int64) (Vertex, bool) {
	d, ok := m.dense[orig]
	return d, ok
}
