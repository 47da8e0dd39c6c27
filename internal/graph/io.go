package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
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
// The input is read into one buffer, sized from the reader when it reports
// its size, and split at newlines into one chunk per core; an input under
// minEdgeListChunk bytes per core uses fewer. The chunks parse in parallel
// into raw ID pairs, and one pass in line order interns them, so the
// numbering, and the error reported (the one on the lowest line), do not
// depend on the chunking.
func ReadEdgeList(r io.Reader, undirected bool) (*Graph, error) {
	data, err := readInput(r)
	chunks := min(runtime.GOMAXPROCS(0), 1+len(data)/minEdgeListChunk)
	return parseEdgeList(data, err, undirected, chunks)
}

// minEdgeListChunk is the smallest input share worth a goroutine of its own.
const minEdgeListChunk = 1 << 18

// readInput reads r to its end into one buffer, allocated at the size r
// reports when it reports one. On a read error it returns what it read
// before the error, and the error.
func readInput(r io.Reader) ([]byte, error) {
	size, sized := remainingBytes(r)
	if !sized {
		return io.ReadAll(r)
	}
	buf := make([]byte, size)
	n, err := io.ReadFull(r, buf)
	switch err {
	case nil: // r may have grown since it reported its size
		rest, err := io.ReadAll(r)
		return append(buf, rest...), err
	case io.EOF, io.ErrUnexpectedEOF:
		return buf[:n], nil
	}
	return buf[:n], err
}

// parseEdgeList is ReadEdgeList after the read, over the given number of
// chunks. A read error counts as if it were on the line after the input's
// last complete one: a bad line before it is reported instead.
func parseEdgeList(data []byte, readErr error, undirected bool, chunks int) (*Graph, error) {
	complete := data
	if readErr != nil {
		complete = data[:bytes.LastIndexByte(data, '\n')+1]
	}
	parts := splitLines(complete, chunks)
	pairs := make([][]rawEdge, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i := 1; i < len(parts); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pairs[i], errs[i] = parts[i].parse()
		}()
	}
	pairs[0], errs[0] = parts[0].parse()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if readErr != nil {
		if len(data)-len(complete) >= maxEdgeListLine {
			readErr = bufio.ErrTooLong
		}
		return nil, fmt.Errorf("graph: reading edge list: %w", readErr)
	}
	return internEdges(pairs, undirected).Build(), nil
}

// internEdges numbers the chunks' IDs in line order into a Builder whose
// edge slice is allocated once: one arc per pair, two if undirected.
func internEdges(pairs [][]rawEdge, undirected bool) *Builder {
	total := 0
	for _, chunk := range pairs {
		total += len(chunk)
	}
	if undirected {
		total *= 2
	}
	edges := make([]edge, 0, total)
	var ids interner
	for _, chunk := range pairs {
		for _, p := range chunk {
			u, v := ids.id(p.src), ids.id(p.dst)
			edges = append(edges, edge{u, v})
			if undirected && u != v {
				edges = append(edges, edge{v, u})
			}
		}
	}
	return &Builder{n: ids.n, edges: edges}
}

// lineChunk is a run of whole lines of an edge list.
type lineChunk struct {
	data      []byte
	firstLine int // the file's line number of data's first line
	lines     int
}

// splitLines cuts data at newlines into the given number of chunks of about
// equal size. A chunk is empty when a line longer than its share covers it.
func splitLines(data []byte, chunks int) []lineChunk {
	parts := make([]lineChunk, 0, chunks)
	line := 1
	for left := chunks; left > 0; left-- {
		end := len(data)
		if left > 1 {
			end = len(data) / left
			if i := bytes.IndexByte(data[end:], '\n'); i >= 0 {
				end += i + 1
			} else {
				end = len(data)
			}
		}
		c := lineChunk{data: data[:end], firstLine: line, lines: bytes.Count(data[:end], []byte{'\n'})}
		if end > 0 && data[end-1] != '\n' {
			c.lines++
		}
		parts = append(parts, c)
		line += c.lines
		data = data[end:]
	}
	return parts
}

// rawEdge is an edge-list line's two IDs as the file spells them.
type rawEdge struct{ src, dst int64 }

// parse returns the chunk's edges, or the error on its first bad line.
func (c lineChunk) parse() ([]rawEdge, error) {
	pairs := make([]rawEdge, 0, c.lines)
	data := c.data
	for lineNo := c.firstLine; len(data) > 0; lineNo++ {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(line) >= maxEdgeListLine {
			return nil, fmt.Errorf("graph: reading edge list: %w", bufio.ErrTooLong)
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
			pairs = append(pairs, rawEdge{su, sv})
		}
	}
	return pairs, nil
}

// interner numbers raw vertex IDs densely in first-appearance order. A
// non-negative ID below len(dense) is looked up in dense, which holds its
// number plus one (zero: not seen yet); every other ID goes through sparse.
// dense grows, by doubling, only to take an ID below twice the distinct IDs
// seen so far plus denseSlack, so it stays O(distinct IDs) whatever values
// the input claims. A growth moves the sparse entries it now covers into
// dense; none moves twice.
type interner struct {
	dense  []VertexID
	sparse map[int64]VertexID
	n      int
}

// denseSlack is how far past twice the IDs seen the dense table may grow.
const denseSlack = 1 << 10

func (in *interner) id(x int64) VertexID {
	if uint64(x) < uint64(len(in.dense)) && in.dense[x] != 0 {
		return in.dense[x] - 1
	}
	return in.add(x)
}

// add interns an ID dense does not hold: into dense if it covers the ID or
// may grow to, else through sparse.
func (in *interner) add(x int64) VertexID {
	if x >= int64(len(in.dense)) && x < 2*int64(in.n)+denseSlack {
		size := max(2*len(in.dense), denseSlack)
		for int64(size) <= x {
			size *= 2
		}
		dense := make([]VertexID, size)
		copy(dense, in.dense)
		for raw, id := range in.sparse {
			if raw >= 0 && raw < int64(size) {
				dense[raw] = id + 1
				delete(in.sparse, raw)
			}
		}
		in.dense = dense
		if in.dense[x] != 0 {
			return in.dense[x] - 1
		}
	}
	if uint64(x) < uint64(len(in.dense)) {
		in.n++
		in.dense[x] = VertexID(in.n)
		return VertexID(in.n - 1)
	}
	id, ok := in.sparse[x]
	if !ok {
		if in.sparse == nil {
			in.sparse = make(map[int64]VertexID)
		}
		id = VertexID(in.n)
		in.sparse[x] = id
		in.n++
	}
	return id
}

// edgeFields returns a line's first two whitespace-separated fields and how
// many it has, counting at most two; a blank or '#' comment line has none.
// Whitespace is what strings.Fields splits on: ASCII bytes are classified
// here, and a non-ASCII byte met before the second field ends sends the line
// down the strings path, so Unicode spaces (U+0085, U+00A0, ...) separate
// fields exactly as they always have. Past the second field's end nothing
// can change the first two fields, so the rest of the line is not read.
func edgeFields(line []byte) (src, dst []byte, nf int) {
	i, c := skip(line, 0, classSpace)
	if c == classOther {
		return unicodeFields(line)
	}
	if i == len(line) || line[i] == '#' {
		return nil, nil, 0
	}
	j, c := skip(line, i, classField)
	if c == classOther {
		return unicodeFields(line)
	}
	k, c := skip(line, j, classSpace)
	if c == classOther {
		return unicodeFields(line)
	}
	if k == len(line) {
		return line[i:j], nil, 1
	}
	l, c := skip(line, k, classField)
	if c == classOther {
		return unicodeFields(line)
	}
	return line[i:j], line[k:l], 2
}

// unicodeFields is edgeFields for a line with non-ASCII bytes.
func unicodeFields(line []byte) (src, dst []byte, nf int) {
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

// Byte classes for edgeFields: an ASCII space, any other ASCII byte, and a
// byte of a multi-byte UTF-8 sequence (or an invalid one).
const (
	classField = iota
	classSpace
	classOther
)

var byteClass = func() (t [256]uint8) {
	for c := utf8.RuneSelf; c < 256; c++ {
		t[c] = classOther
	}
	for _, c := range []byte(" \t\n\v\f\r") {
		t[c] = classSpace
	}
	return t
}()

// skip advances from i past bytes of class want and returns where it
// stopped and the class of the byte there (want at the line's end).
func skip(line []byte, i int, want uint8) (int, uint8) {
	for ; i < len(line); i++ {
		if c := byteClass[line[i]]; c != want {
			return i, c
		}
	}
	return i, want
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
