package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
	)
}

// ReadEdgeList returns what the Scanner-based parser it replaced returned:
// the same graph, or the same error on the same line.
func FuzzReadEdgeList(f *testing.F) {
	for _, s := range edgeListSeeds(f) {
		f.Add([]byte(s), false)
		f.Add([]byte(s), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, undirected bool) {
		g, err := ReadEdgeList(bytes.NewReader(data), undirected)
		ref, refErr := readEdgeListScanner(bytes.NewReader(data), undirected)
		if err != nil || refErr != nil {
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("error %v, reference error %v", err, refErr)
			}
			return
		}
		if !reflect.DeepEqual(g, ref) {
			t.Fatalf("graph differs from the reference:\n got %v %v\nwant %v %v", g.offsets, g.adj, ref.offsets, ref.adj)
		}
	})
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
