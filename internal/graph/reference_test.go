package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file keeps the loaders' former implementations as test-only
// references: the comparison-sort Builder.Build and the Scanner-based
// ReadEdgeList. The production code must agree with them bit for bit.

// buildSorted is Builder.Build as a global sort of the edge list followed by
// a dedup pass.
func buildSorted(b *Builder) *Graph {
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].u != b.edges[j].u {
			return b.edges[i].u < b.edges[j].u
		}
		return b.edges[i].v < b.edges[j].v
	})
	dedup := b.edges[:0]
	for i, e := range b.edges {
		if i == 0 || e != b.edges[i-1] {
			dedup = append(dedup, e)
		}
	}
	offsets := make([]int64, b.n+1)
	for _, e := range dedup {
		offsets[e.u+1]++
	}
	for i := 1; i <= b.n; i++ {
		offsets[i] += offsets[i-1]
	}
	adj := make([]VertexID, len(dedup))
	for i, e := range dedup {
		adj[i] = e.v
	}
	b.edges = nil
	return &Graph{offsets: offsets, adj: adj}
}

// readEdgeListScanner is ReadEdgeList as bufio.Scanner lines split by
// strings.Fields and parsed by strconv.ParseInt, interning after the read.
func readEdgeListScanner(r io.Reader, undirected bool) (*Graph, error) {
	type rawEdge struct{ u, v int64 }
	var raw []rawEdge
	idMap := make(map[int64]VertexID)
	intern := func(x int64) VertexID {
		if id, ok := idMap[x]; ok {
			return id
		}
		id := VertexID(len(idMap))
		idMap[x] = id
		return id
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: expected 2 fields, got %d", lineNo, len(fields))
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source id: %v", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target id: %v", lineNo, err)
		}
		raw = append(raw, rawEdge{u, v})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	for _, e := range raw {
		intern(e.u)
		intern(e.v)
	}
	b := NewBuilder(len(idMap))
	for _, e := range raw {
		u, v := idMap[e.u], idMap[e.v]
		if undirected {
			b.AddUndirected(u, v)
		} else {
			b.Add(u, v)
		}
	}
	return buildSorted(b), nil
}
