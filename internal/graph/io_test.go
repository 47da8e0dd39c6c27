package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

func TestReadEdgeList(t *testing.T) {
	input := `# comment line
# another
0	1
1 2
5 0
`
	g, err := ReadEdgeList(strings.NewReader(input), false)
	if err != nil {
		t.Fatal(err)
	}
	// IDs 0,1,2,5 are renumbered densely in first-appearance order: 0,1,2,3.
	if g.NumVertices() != 4 {
		t.Fatalf("vertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", g.NumEdges())
	}
	if !g.HasEdge(3, 0) { // 5->0 renumbered to 3->0
		t.Error("missing renumbered edge 5->0")
	}
}

func TestReadEdgeListUndirected(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("undirected read missing reverse edge")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("0\n"), false); err == nil {
		t.Error("expected error for single-field line")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n"), false); err == nil {
		t.Error("expected error for non-numeric id")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := ErdosRenyi(50, 120, 4)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed size: %d/%d -> %d/%d",
			g.NumVertices(), g.NumEdges(), g2.NumVertices(), g2.NumEdges())
	}
	// The reader renumbers vertices in first-appearance order, so compare the
	// isomorphism-invariant sorted degree sequence rather than raw edges.
	degrees := func(g *Graph) []int {
		ds := make([]int, g.NumVertices())
		for v := range ds {
			ds[v] = g.OutDegree(VertexID(v))
		}
		sort.Ints(ds)
		return ds
	}
	d1, d2 := degrees(g), degrees(g2)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("degree sequence mismatch at %d: %d vs %d", i, d1[i], d2[i])
		}
	}
}

func TestEdgeListRoundTripExact(t *testing.T) {
	// Path's edge iteration interns IDs in identity order, so the round trip
	// is exact edge-for-edge.
	g := Path(6)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	g.ForEachEdge(func(u, v VertexID) {
		if !g2.HasEdge(u, v) {
			t.Errorf("lost edge (%d,%d)", u, v)
		}
	})
}

func TestBinaryRoundTrip(t *testing.T) {
	g := BarabasiAlbert(200, 3, 6)
	g.SetName("test-graph")
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Name() != "test-graph" {
		t.Errorf("name = %q", g2.Name())
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("binary round trip changed size")
	}
	g.ForEachEdge(func(u, v VertexID) {
		if !g2.HasEdge(u, v) {
			t.Errorf("lost edge (%d,%d)", u, v)
		}
	})
}

func TestReadBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Error("expected bad-magic error")
	}
}

func TestReadBinaryTruncated(t *testing.T) {
	g := Ring(10)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("expected error for truncated input")
	}
}

// edgeListSeeds are FuzzReadEdgeList's seed inputs: small generator graphs
// as WriteEdgeList writes them, plus the layouts real edge lists arrive in.
func edgeListSeeds(t testing.TB) []string {
	var seeds []string
	for _, g := range []*Graph{Path(6), Star(9), ErdosRenyi(30, 60, 2), Community(40, 2, 2, 0.8, 5)} {
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, buf.String())
	}
	return append(seeds,
		"0 1\r\n1 2\r\n# crlf\r\n",
		"7\t3\n3\t\t9\t1.5\n",
		"   4 5\n\t\t5 6\n \n",
		"# a\n#b c\n   # indented\n1 2\n",
		"1 2\n2 3",
		"10 20 30\n-4 +4\n",
		"1\n",
		"1 x\n",
		"99999999999999999999 1\n",
		"9223372036854775807 -9223372036854775808\n9999999999999999999 1\n",
		"1 2\n 2 3\n",
		"1 2\n"+strings.Repeat("3", maxEdgeListLine)+" 4\n",
		// IDs the dense table does not cover at first, then enough dense
		// ones that it grows over them and takes them out of the map.
		"3000 4000\n"+pathLines(1500)+"4000 3000\n2999 3000\n",
		"-1 -2\n4294967296 4294967297\n-1 4294967296\n0 -9223372036854775808\n1 1099511627776\n",
		strings.Repeat("42 7\n", 8)+"7 42\n9 42\n",
		"1 2\n3 x\n"+strings.Repeat("5 6\n", 4)+"y 7\n8 9\n",
		"1 2\r\n# c\r\n3\u00a04\r\n5 6\r\n\u00856 7\n# \u00e9\n8 9\r\n",
		"1 2\n1 "+strings.Repeat("2", maxEdgeListLine-3)+"\n3 4\n5\n",
	)
}

// pathLines is a path over IDs 0..n as edge-list lines.
func pathLines(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%d %d\n", i, i+1)
	}
	return sb.String()
}

// ReadEdgeList returns what the Scanner-based parser it replaced returned:
// the same graph, or the same error on the same line; so does the parse
// over 1 to 4 chunks, however the input's lines fall into them.
func FuzzReadEdgeList(f *testing.F) {
	for _, s := range edgeListSeeds(f) {
		f.Add([]byte(s), false)
		f.Add([]byte(s), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, undirected bool) {
		ref, refErr := readEdgeListScanner(bytes.NewReader(data), undirected)
		check := func(name string, g *Graph, err error) {
			if err != nil || refErr != nil {
				if fmt.Sprint(err) != fmt.Sprint(refErr) {
					t.Fatalf("%s: error %v, reference error %v", name, err, refErr)
				}
				return
			}
			if !reflect.DeepEqual(g, ref) {
				t.Fatalf("%s: graph differs from the reference:\n got %v %v\nwant %v %v", name, g.offsets, g.adj, ref.offsets, ref.adj)
			}
		}
		g, err := ReadEdgeList(bytes.NewReader(data), undirected)
		check("ReadEdgeList", g, err)
		for chunks := 1; chunks <= 4; chunks++ {
			g, err := parseEdgeList(data, nil, undirected, chunks)
			check(fmt.Sprintf("%d chunks", chunks), g, err)
		}
	})
}

// IDs far beyond the number of vertices go through the map: reading them
// allocates nothing in proportion to their values.
func TestReadEdgeListHostileIDs(t *testing.T) {
	for _, in := range []string{
		"0 1099511627776\n",
		"4611686018427387904 1\n1 4611686018427387904\n",
		"1 1073741824\n2 2147483647\n3 4294967295\n",
		"9223372036854775807 -9223372036854775808\n" + pathLines(3000) + "5000000 0\n",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := ReadEdgeList(strings.NewReader(in), true)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%.40q: %v", in, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%.40q: allocated %d bytes for %d vertices", in, grew, g.NumVertices())
		}
	}
}

// The input buffer is allocated once at the size a sized reader reports,
// and the edge slice once at one arc per line, two if undirected.
func TestReadEdgeListExactCapacity(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, RMAT(10, 8, 0.57, 0.19, 0.19, 0.05, 1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, r := range []io.Reader{bytes.NewReader(buf.Bytes()), f, unsized{bytes.NewReader(buf.Bytes())}} {
		data, err := readInput(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, buf.Bytes()) {
			t.Fatalf("%T: read %d bytes, want %d", r, len(data), buf.Len())
		}
		if _, ok := r.(unsized); !ok && cap(data) != len(data) {
			t.Errorf("%T: buffer capacity %d for %d bytes", r, cap(data), len(data))
		}
	}
	pairs, err := splitLines(buf.Bytes(), 1)[0].parse()
	if err != nil {
		t.Fatal(err)
	}
	for _, undirected := range []bool{false, true} {
		b := internEdges([][]rawEdge{pairs}, undirected)
		want := len(pairs)
		if undirected {
			want *= 2 // RMAT has no self-loops
		}
		if len(b.edges) != want || cap(b.edges) != want {
			t.Errorf("undirected=%v: %d edges in capacity %d, want %d", undirected, len(b.edges), cap(b.edges), want)
		}
	}
}

// failingReader delivers its data, then fails.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// A read error is reported as if it were on the line after the last
// complete one: a bad line before it wins, a line cut short by it does not
// parse, and a cut line that is already too long is reported as too long.
func TestReadEdgeListReadError(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		in, want string
	}{
		{"1 2\nx 3\n4 5\n", "graph: line 2: bad source id: strconv.ParseInt: parsing \"x\": invalid syntax"},
		{"1 2\n3 4\n", "graph: reading edge list: boom"},
		{"1 2\n3 x", "graph: reading edge list: boom"},
		{"1 2\n" + strings.Repeat("3", maxEdgeListLine), "graph: reading edge list: bufio.Scanner: token too long"},
	} {
		_, err := ReadEdgeList(&failingReader{[]byte(tc.in), boom}, false)
		if fmt.Sprint(err) != tc.want {
			t.Errorf("%.20q: error %v, want %s", tc.in, err, tc.want)
		}
	}
}

// A line's limit is the Scanner's: 4 MiB - 1 bytes before the newline pass,
// 4 MiB fail, with or without a newline after them.
func TestReadEdgeListLineLimit(t *testing.T) {
	for _, tc := range []struct {
		line   string
		wantOK bool
	}{
		{"1 " + strings.Repeat("2", maxEdgeListLine-3) + "\n", true},
		{"1 " + strings.Repeat("2", maxEdgeListLine-3), true},
		{"1 " + strings.Repeat("2", maxEdgeListLine-2) + "\n", false},
		{"1 " + strings.Repeat("2", maxEdgeListLine-2), false},
	} {
		in := "5 6\n" + tc.line
		_, err := ReadEdgeList(strings.NewReader(in), false)
		_, refErr := readEdgeListScanner(strings.NewReader(in), false)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("%d-byte line: error %v, reference error %v", len(tc.line), err, refErr)
		}
		if got := !errors.Is(err, bufio.ErrTooLong); got != tc.wantOK {
			t.Errorf("%d-byte line: error %v", len(tc.line), err)
		}
	}
}

// binaryHeader is a WriteBinary header claiming n vertices and m arcs.
func binaryHeader(n, m uint64) []byte {
	hdr := binary.LittleEndian.AppendUint32(nil, binaryMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)
	hdr = binary.LittleEndian.AppendUint64(hdr, n)
	return binary.LittleEndian.AppendUint64(hdr, m)
}

// unsized hides a reader's Len, so ReadBinary cannot know the input's size.
type unsized struct{ io.Reader }

// A header claiming more than the input holds fails with an error, and
// neither the sized nor the chunked path allocates for the claim.
func TestReadBinaryHostileHeader(t *testing.T) {
	for _, claim := range []struct{ n, m uint64 }{
		{1 << 62, 0}, {0, 1 << 62}, {1 << 32, 1 << 40}, {1 << 30, 3}, {3, 1 << 30},
	} {
		data := append(binaryHeader(claim.n, claim.m), make([]byte, 256)...)
		for _, r := range []io.Reader{bytes.NewReader(data), unsized{bytes.NewReader(data)}} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadBinary(r)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("n=%d m=%d (%T): no error", claim.n, claim.m, r)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("n=%d m=%d (%T): allocated %d bytes for a %d-byte input", claim.n, claim.m, r, grew, len(data))
			}
		}
	}
}

// An honest input allocates exactly n+1 offsets and m arcs.
func TestReadBinaryExactCapacity(t *testing.T) {
	g := RMAT(12, 8, 0.57, 0.19, 0.19, 0.05, 1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	for _, r := range []io.Reader{bytes.NewReader(buf.Bytes()), unsized{bytes.NewReader(buf.Bytes())}} {
		g2, err := ReadBinary(r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, g2) {
			t.Fatalf("%T: round trip changed the graph", r)
		}
		if _, ok := r.(unsized); !ok && (cap(g2.offsets) != len(g2.offsets) || cap(g2.adj) != len(g2.adj)) {
			t.Errorf("capacities %d/%d for %d offsets and %d arcs", cap(g2.offsets), cap(g2.adj), len(g2.offsets), len(g2.adj))
		}
	}
}

// ReadBinary never panics or hangs, the sized and chunked paths agree, and
// whatever it accepts writes back to the bytes it read.
func FuzzReadBinary(f *testing.F) {
	for _, g := range []*Graph{Path(1), Ring(10), Star(7), BarabasiAlbert(40, 2, 3), NewBuilder(0).Build()} {
		g.SetName("seed")
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-3])
	}
	f.Add(binaryHeader(1<<62, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		g2, err2 := ReadBinary(unsized{bytes.NewReader(data)})
		if (err == nil) != (err2 == nil) || !reflect.DeepEqual(g, g2) {
			t.Fatalf("sized read (%v) and chunked read (%v) disagree", err, err2)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatal("accepted input does not write back to the bytes read")
		}
	})
}

// BenchmarkReadEdgeList loads the wcc-sub-frontend benchmark workload's
// input file (seed 1, 9.3 MB) from memory.
func BenchmarkReadEdgeList(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, Community(100000, 500, 4, 0.85, 1)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ReadEdgeList(bytes.NewReader(buf.Bytes()), false); err != nil {
			b.Fatal(err)
		}
	}
}
