package chunk

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphm/internal/graph"
)

func TestChunkSizeFormula(t *testing.T) {
	p := SizeParams{
		NumCores:  8,
		LLCBytes:  20 << 20, // the paper's 20 MB LLC
		GraphSize: 10 << 30,
		NumV:      41_700_000,
		VertexPay: 8,
		Reserved:  1 << 20,
	}
	sc, err := ChunkSize(p)
	if err != nil {
		t.Fatal(err)
	}
	// Verify the Formula (1) inequality holds at the returned size.
	lhs := float64(sc*int64(p.NumCores)) +
		float64(sc*int64(p.NumCores))/float64(p.GraphSize)*float64(p.NumV)*float64(p.VertexPay) +
		float64(p.Reserved)
	if lhs > float64(p.LLCBytes) {
		t.Fatalf("formula violated: lhs=%v > LLC=%d at Sc=%d", lhs, p.LLCBytes, sc)
	}
	// And that it is maximal up to one alignment unit.
	align := int64(192) // lcm(12, 64)
	lhs2 := float64((sc+align)*int64(p.NumCores)) +
		float64((sc+align)*int64(p.NumCores))/float64(p.GraphSize)*float64(p.NumV)*float64(p.VertexPay) +
		float64(p.Reserved)
	if lhs2 <= float64(p.LLCBytes) {
		t.Fatalf("Sc=%d not maximal: Sc+%d still satisfies the formula", sc, align)
	}
	if sc%align != 0 {
		t.Fatalf("Sc=%d not aligned to %d", sc, align)
	}
}

func TestChunkSizeValidation(t *testing.T) {
	if _, err := ChunkSize(SizeParams{}); err == nil {
		t.Fatal("expected error on zero params")
	}
	p := SizeParams{NumCores: 4, LLCBytes: 1024, GraphSize: 1 << 20, NumV: 100, VertexPay: 8, Reserved: 2048}
	if _, err := ChunkSize(p); err == nil {
		t.Fatal("expected error when reserved exceeds LLC")
	}
}

func TestChunkSizeClampsToMinimum(t *testing.T) {
	// A tiny LLC still yields one aligned unit so streaming works.
	p := SizeParams{NumCores: 16, LLCBytes: 4096, GraphSize: 1 << 30, NumV: 1 << 20, VertexPay: 8, Reserved: 0}
	sc, err := ChunkSize(p)
	if err != nil {
		t.Fatal(err)
	}
	if sc != 192 {
		t.Fatalf("Sc = %d, want minimum alignment 192", sc)
	}
}

// TestChunkSizeTable drives Formula (1) through its edge cases: degenerate
// parameters, a tiny LLC clamping to one alignment unit, alignment rounding,
// and an N so large the formula would yield less than one aligned unit.
func TestChunkSizeTable(t *testing.T) {
	align := int64(192) // lcm(EdgeSize=12, cache line 64)
	cases := []struct {
		name    string
		p       SizeParams
		want    int64 // exact expected size; -1 means "any valid aligned size"
		wantErr bool
	}{
		{name: "zero params", p: SizeParams{}, wantErr: true},
		{name: "zero cores", p: SizeParams{LLCBytes: 1 << 20, GraphSize: 1 << 20, NumV: 10}, wantErr: true},
		{name: "negative cores", p: SizeParams{NumCores: -2, LLCBytes: 1 << 20, GraphSize: 1 << 20, NumV: 10}, wantErr: true},
		{name: "zero LLC", p: SizeParams{NumCores: 1, GraphSize: 1 << 20, NumV: 10}, wantErr: true},
		{name: "reserved exceeds LLC", p: SizeParams{NumCores: 4, LLCBytes: 1024, GraphSize: 1 << 20, NumV: 100, VertexPay: 8, Reserved: 2048}, wantErr: true},
		{name: "reserved equals LLC", p: SizeParams{NumCores: 4, LLCBytes: 2048, GraphSize: 1 << 20, NumV: 100, VertexPay: 8, Reserved: 2048}, wantErr: true},
		{
			// LLC smaller than one aligned unit per core: clamps up to the
			// minimum so degenerate configurations still stream.
			name: "tiny LLC clamps to alignment",
			p:    SizeParams{NumCores: 16, LLCBytes: 4096, GraphSize: 1 << 30, NumV: 1 << 20, VertexPay: 8, Reserved: 0},
			want: align,
		},
		{
			// N far beyond what the LLC can hold one aligned unit each for —
			// the formula still returns the clamped minimum, never zero.
			name: "N exceeds chunk capacity",
			p:    SizeParams{NumCores: 1 << 20, LLCBytes: 1 << 20, GraphSize: 1 << 30, NumV: 1 << 20, VertexPay: 8},
			want: align,
		},
		{
			// No vertex term (VertexPay 0): S_c = avail/N rounded down to the
			// alignment; 1 MB over 4 cores is 262144, which rounds to 262080.
			name: "alignment rounding",
			p:    SizeParams{NumCores: 4, LLCBytes: 1 << 20, GraphSize: 1 << 30, NumV: 1, VertexPay: 0},
			want: (1 << 20) / 4 / align * align,
		},
		{
			name: "single core whole LLC",
			p:    SizeParams{NumCores: 1, LLCBytes: 1 << 20, GraphSize: 1 << 30, NumV: 1, VertexPay: 0},
			want: (1 << 20) / align * align,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := ChunkSize(tc.p)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("ChunkSize(%+v) = %d, want error", tc.p, sc)
				}
				return
			}
			if err != nil {
				t.Fatalf("ChunkSize(%+v): %v", tc.p, err)
			}
			if sc%align != 0 || sc < align {
				t.Fatalf("ChunkSize(%+v) = %d, not a positive multiple of %d", tc.p, sc, align)
			}
			if tc.want >= 0 && sc != tc.want {
				t.Fatalf("ChunkSize(%+v) = %d, want %d", tc.p, sc, tc.want)
			}
		})
	}
}

// TestChunkSizeHalvesWithConcurrency pins Formula (1)'s scaling: S_c goes
// as 1/N, so doubling the core count halves the chunk (up to alignment
// rounding).
func TestChunkSizeHalvesWithConcurrency(t *testing.T) {
	base := SizeParams{LLCBytes: 1 << 20, GraphSize: 1 << 28, NumV: 1 << 16, VertexPay: 8, Reserved: 1 << 16}
	prev := int64(0)
	for _, n := range []int{1, 2, 4, 8} {
		p := base
		p.NumCores = n
		sc, err := ChunkSize(p)
		if err != nil {
			t.Fatal(err)
		}
		if prev > 0 && (sc > prev/2 || sc <= 0) {
			t.Fatalf("N=%d: S_c=%d not at most half of N=%d's %d", n, sc, n/2, prev)
		}
		prev = sc
	}
}

func TestLabelSingleEdgePartition(t *testing.T) {
	set := Label(3, []graph.Edge{{Src: 7, Dst: 9, Weight: 1}}, 960)
	if set.NumChunks() != 1 {
		t.Fatalf("single-edge partition labelled with %d chunks, want 1", set.NumChunks())
	}
	c := set.Chunks[0]
	if c.FirstEdge != 0 || c.NumEdges != 1 || len(c.Entries) != 1 {
		t.Fatalf("bad single-edge chunk: %+v", c)
	}
	if c.OutCount(7) != 1 || c.OutCount(9) != 0 {
		t.Fatalf("OutCount wrong: N+(7)=%d N+(9)=%d", c.OutCount(7), c.OutCount(9))
	}
}

func TestLabelChunkSmallerThanEdge(t *testing.T) {
	// A chunk size below one edge still yields one-edge chunks, never zero.
	edges := []graph.Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}}
	set := Label(0, edges, 1)
	if set.NumChunks() != 2 {
		t.Fatalf("chunks = %d, want 2 one-edge chunks", set.NumChunks())
	}
	for i, c := range set.Chunks {
		if c.NumEdges != 1 {
			t.Fatalf("chunk %d holds %d edges, want 1", i, c.NumEdges)
		}
	}
}

func TestSplitStreamRoundTrips(t *testing.T) {
	mk := func(n int) []graph.Edge {
		out := make([]graph.Edge, n)
		for i := range out {
			out[i] = graph.Edge{Src: uint32(i), Dst: uint32(i + 1)}
		}
		return out
	}
	cases := []struct {
		name       string
		streamLen  int
		chunkBytes int64
		numChunks  int
	}{
		{"exact fit", 40, 10 * graph.EdgeSize, 4},
		{"spill into last", 55, 10 * graph.EdgeSize, 4},
		{"short stream leaves empties", 15, 10 * graph.EdgeSize, 4},
		{"empty stream", 0, 10 * graph.EdgeSize, 3},
		{"single chunk", 9, 100 * graph.EdgeSize, 1},
		{"sub-edge chunk size", 5, 1, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			edges := mk(tc.streamLen)
			segs := SplitStream(edges, tc.chunkBytes, tc.numChunks)
			if len(segs) != tc.numChunks {
				t.Fatalf("segments = %d, want %d", len(segs), tc.numChunks)
			}
			var cat []graph.Edge
			per := EdgesPerChunk(tc.chunkBytes)
			for i, s := range segs {
				if i < len(segs)-1 && len(s) > per {
					t.Fatalf("segment %d holds %d edges, capacity %d", i, len(s), per)
				}
				cat = append(cat, s...)
			}
			if len(cat) != len(edges) {
				t.Fatalf("concatenation has %d edges, want %d", len(cat), len(edges))
			}
			for i := range cat {
				if cat[i] != edges[i] {
					t.Fatalf("edge %d changed across split", i)
				}
			}
		})
	}
	if segs := SplitStream(mk(10), 960, 0); segs != nil {
		t.Fatalf("zero chunks should yield nil, got %d segments", len(segs))
	}
}

func TestLabelCoversAllEdgesOnce(t *testing.T) {
	g, err := graph.GenerateRMAT(graph.DefaultRMAT("l", 256, 3000, 3))
	if err != nil {
		t.Fatal(err)
	}
	set := Label(0, g.Edges, 960) // 80 edges per chunk
	total := 0
	for i, c := range set.Chunks {
		if c.NumEdges != c.TotalEdges() {
			t.Fatalf("chunk %d: NumEdges=%d but table sums to %d", i, c.NumEdges, c.TotalEdges())
		}
		total += c.NumEdges
	}
	if total != len(g.Edges) {
		t.Fatalf("chunks cover %d edges, want %d", total, len(g.Edges))
	}
	// Chunks must tile the stream contiguously.
	next := 0
	for i, c := range set.Chunks {
		if c.FirstEdge != next {
			t.Fatalf("chunk %d starts at %d, want %d", i, c.FirstEdge, next)
		}
		next += c.NumEdges
	}
}

func TestLabelOutCountsMatchStream(t *testing.T) {
	g, _ := graph.GenerateUniform("u", 100, 1000, 9)
	set := Label(1, g.Edges, 1200) // 100 edges per chunk
	for _, c := range set.Chunks {
		counts := map[graph.VertexID]uint32{}
		for _, e := range g.Edges[c.FirstEdge : c.FirstEdge+c.NumEdges] {
			counts[e.Src]++
		}
		if len(counts) != len(c.Entries) {
			t.Fatalf("chunk has %d entries, want %d", len(c.Entries), len(counts))
		}
		for _, entry := range c.Entries {
			if counts[entry.Vertex] != entry.OutCnt {
				t.Fatalf("N+(%d) = %d, want %d", entry.Vertex, entry.OutCnt, counts[entry.Vertex])
			}
			if c.OutCount(entry.Vertex) != entry.OutCnt {
				t.Fatalf("OutCount(%d) lookup mismatch", entry.Vertex)
			}
		}
	}
}

func TestLabelEmptyPartition(t *testing.T) {
	set := Label(0, nil, 960)
	if set.NumChunks() != 0 {
		t.Fatalf("empty partition labelled with %d chunks", set.NumChunks())
	}
	if set.MetadataBytes() != 0 {
		t.Fatal("empty partition has metadata")
	}
}

func TestLabelChunkSizesBounded(t *testing.T) {
	// Property: every chunk except possibly the last holds exactly
	// chunkBytes/EdgeSize edges; the last holds the remainder.
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500)
		edges := make([]graph.Edge, n)
		for i := range edges {
			edges[i] = graph.Edge{Src: uint32(rng.Intn(64)), Dst: uint32(rng.Intn(64))}
		}
		per := 1 + int(sz)%50
		set := Label(0, edges, int64(per)*graph.EdgeSize)
		for i, c := range set.Chunks {
			if i < len(set.Chunks)-1 && c.NumEdges != per {
				return false
			}
			if c.NumEdges > per || c.NumEdges == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMetadataProportionalToDistinctSources(t *testing.T) {
	edges := []graph.Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 1}}
	set := Label(0, edges, 10*graph.EdgeSize)
	if got := set.MetadataBytes(); got != 16 { // 2 entries * 8 bytes
		t.Fatalf("metadata = %d, want 16", got)
	}
}
