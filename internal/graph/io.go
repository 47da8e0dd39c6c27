package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// This file implements the edge-list text format used by SNAP (the paper's
// dataset source) and a compact binary format for the blob store.

// maxEdgeListLine bounds one edge-list line: a line of this many bytes or
// more, not counting its '\n', is an error (bufio.ErrTooLong).
const maxEdgeListLine = 1 << 22

// ReadEdgeList parses a SNAP-style edge list: one "src<ws>dst" pair per
// line, '#' lines are comments, fields after the second are ignored. Vertex
// IDs may be sparse; they are densely renumbered in first-appearance order
// (source, then target, line by line). If undirected is true each edge is
// added in both directions.
//
// The parser works on the bytes of a bufio.Reader's buffer: no per-line
// string, no field slice, and edges go straight into the Builder.
func ReadEdgeList(r io.Reader, undirected bool) (*Graph, error) {
	ids := make(map[int64]VertexID)
	intern := func(x int64) VertexID {
		id, ok := ids[x]
		if !ok {
			id = VertexID(len(ids))
			ids[x] = id
		}
		return id
	}
	b := &Builder{}
	br := bufio.NewReaderSize(r, 1<<16)
	var long []byte // a line that outgrew br's buffer
	for lineNo := 1; ; lineNo++ {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull && len(long) <= maxEdgeListLine {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		if len(line) >= maxEdgeListLine {
			return nil, fmt.Errorf("graph: reading edge list: %w", bufio.ErrTooLong)
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("graph: reading edge list: %w", err)
		}
		src, dst, nf := edgeFields(line)
		if nf == 1 {
			return nil, fmt.Errorf("graph: line %d: expected 2 fields, got %d", lineNo, nf)
		}
		if nf > 1 {
			su, err := parseVertexID(src)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad source id: %v", lineNo, err)
			}
			sv, err := parseVertexID(dst)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad target id: %v", lineNo, err)
			}
			u, v := intern(su), intern(sv)
			b.edges = append(b.edges, edge{u, v})
			if undirected && u != v {
				b.edges = append(b.edges, edge{v, u})
			}
		}
		if err == io.EOF {
			break
		}
	}
	b.n = len(ids)
	return b.Build(), nil
}

// edgeFields returns a line's first two whitespace-separated fields and how
// many it has, counting at most two; a blank or '#' comment line has none.
// Whitespace is what strings.Fields splits on: ASCII bytes are classified
// here, and a line with any non-ASCII byte takes the strings path so Unicode
// spaces (U+0085, U+00A0, ...) separate fields exactly as they always have.
func edgeFields(line []byte) (src, dst []byte, nf int) {
	for _, c := range line {
		if c >= utf8.RuneSelf {
			s := strings.TrimSpace(string(line))
			if s == "" || s[0] == '#' {
				return nil, nil, 0
			}
			f := strings.Fields(s)
			if len(f) < 2 {
				return []byte(f[0]), nil, 1
			}
			return []byte(f[0]), []byte(f[1]), 2
		}
	}
	i := skipSpace(line, 0)
	if i == len(line) || line[i] == '#' {
		return nil, nil, 0
	}
	j := skipField(line, i)
	k := skipSpace(line, j)
	if k == len(line) {
		return line[i:j], nil, 1
	}
	return line[i:j], line[k:skipField(line, k)], 2
}

func isASCIISpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

func skipSpace(line []byte, i int) int {
	for i < len(line) && isASCIISpace(line[i]) {
		i++
	}
	return i
}

func skipField(line []byte, i int) int {
	for i < len(line) && !isASCIISpace(line[i]) {
		i++
	}
	return i
}

// parseVertexID parses a decimal ID. Plain digits of up to 18 characters,
// which cannot overflow, are converted here; anything else goes to
// strconv.ParseInt, whose result and error it therefore always matches.
func parseVertexID(f []byte) (int64, error) {
	digits := f
	if len(f) > 0 && (f[0] == '+' || f[0] == '-') {
		digits = f[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		return strconv.ParseInt(string(f), 10, 64)
	}
	var x int64
	for _, c := range digits {
		d := c - '0'
		if d > 9 {
			return strconv.ParseInt(string(f), 10, 64)
		}
		x = x*10 + int64(d)
	}
	if f[0] == '-' {
		x = -x
	}
	return x, nil
}

// WriteEdgeList writes the graph as a SNAP-style edge list with a header
// comment. Every directed edge is written once.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s  vertices=%d directed-edges=%d\n", g.Name(), g.NumVertices(), g.NumEdges())
	var err error
	g.ForEachEdge(func(u, v VertexID) {
		if err == nil {
			_, err = fmt.Fprintf(bw, "%d\t%d\n", u, v)
		}
	})
	if err != nil {
		return fmt.Errorf("graph: writing edge list: %w", err)
	}
	return bw.Flush()
}

const binaryMagic = 0x50474252 // "PGBR"

// WriteBinary serializes the graph in the compact CSR binary format used to
// stage graphs in the blob store.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	hdr := make([]byte, 4+4+8+8)
	binary.LittleEndian.PutUint32(hdr[0:], binaryMagic)
	name := g.Name()
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(name)))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(g.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(g.NumEdges()))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if _, err := bw.WriteString(name); err != nil {
		return err
	}
	buf := make([]byte, 8)
	for _, off := range g.offsets {
		binary.LittleEndian.PutUint64(buf, uint64(off))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	for _, v := range g.adj {
		binary.LittleEndian.PutUint32(buf[:4], uint32(v))
		if _, err := bw.Write(buf[:4]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// binaryChunk is how many records ReadBinary allocates ahead of the data
// that has arrived when the input's size is unknown.
const binaryChunk = 1 << 13

// ReadBinary deserializes a graph written by WriteBinary. A header's counts
// are checked against the input's size when the reader reports one (Len, as
// *bytes.Reader and *bytes.Buffer do, or Stat on a regular file), so a
// hostile header fails before anything is allocated and an honest one
// allocates exactly n+1 offsets and m arcs. From any other reader the arrays
// grow chunk by chunk as data arrives.
func ReadBinary(r io.Reader) (*Graph, error) {
	size, sized := remainingBytes(r)
	br := bufio.NewReader(r)
	var hdr [4 + 4 + 8 + 8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading binary header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic in binary graph")
	}
	nameLen := uint64(binary.LittleEndian.Uint32(hdr[4:]))
	n := binary.LittleEndian.Uint64(hdr[8:])
	m := binary.LittleEndian.Uint64(hdr[16:])
	if n > math.MaxUint32+1 || m > math.MaxInt/8 {
		return nil, fmt.Errorf("graph: binary header claims %d vertices and %d arcs", n, m)
	}
	if need := uint64(len(hdr)) + nameLen + 8*(n+1) + 4*m; sized && need > size {
		return nil, fmt.Errorf("graph: binary header claims %d vertices and %d arcs (%d bytes), input holds %d", n, m, need, size)
	}
	reserve := func(count uint64) int {
		if sized {
			return int(count)
		}
		return int(min(count, binaryChunk))
	}

	name := make([]byte, 0, reserve(nameLen))
	if err := readChunks(br, nameLen, 1, func(b []byte) { name = append(name, b...) }); err != nil {
		return nil, fmt.Errorf("graph: reading name: %w", err)
	}
	offsets := make([]int64, 0, reserve(n+1))
	err := readChunks(br, n+1, 8, func(b []byte) {
		for i := 0; i < len(b); i += 8 {
			offsets = append(offsets, int64(binary.LittleEndian.Uint64(b[i:])))
		}
	})
	if err != nil {
		return nil, fmt.Errorf("graph: reading offsets: %w", err)
	}
	adj := make([]VertexID, 0, reserve(m))
	err = readChunks(br, m, 4, func(b []byte) {
		for i := 0; i < len(b); i += 4 {
			adj = append(adj, VertexID(binary.LittleEndian.Uint32(b[i:])))
		}
	})
	if err != nil {
		return nil, fmt.Errorf("graph: reading adjacency: %w", err)
	}
	g := &Graph{name: string(name), offsets: offsets, adj: adj}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// remainingBytes reports an upper bound on the bytes r can still deliver,
// when r offers one.
func remainingBytes(r io.Reader) (uint64, bool) {
	switch r := r.(type) {
	case interface{ Len() int }:
		return uint64(r.Len()), true
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return uint64(fi.Size()), true
		}
	}
	return 0, false
}

// readChunks reads count records of size bytes each and hands them to
// decode a buffer at a time, straight from br's buffer without a copy.
func readChunks(br *bufio.Reader, count uint64, size int, decode func([]byte)) error {
	perChunk := uint64(br.Size() / size)
	for count > 0 {
		k := min(count, perChunk)
		chunk, err := br.Peek(int(k) * size)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		decode(chunk)
		if _, err := br.Discard(len(chunk)); err != nil {
			return err
		}
		count -= k
	}
	return nil
}
