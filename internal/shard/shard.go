// Package shard scales one GraphM instance out to a partitioned group of
// core.Systems — the scatter/gather form of the paper's Section 5
// distributed experiments. The graph's partitions are split contiguously
// (ascending partition ID, cluster.GroupSizes) across N shard systems, each
// hosted on its own simulated cluster node (private disk + memory budget);
// a job opens one group session that attaches to every shard and streams
// them shard-major, so the global partition order of an iteration is the
// same ascending-ID order a single system would use.
//
// # Determinism contract
//
// A group run must be bit-identical across shard counts: equal
// schedule-independent work counters, bit-identical algorithm outputs, and
// (through the service) byte-identical ticket logs for the same workload at
// shards=1 and shards=N. Three choices make that hold by construction:
//
//   - Every shard system is built over the FULL graph (the shard layout
//     returns the complete graph.Graph with a subset of partitions), so
//     Formula (1) picks the same chunk size on every shard and chunk
//     boundaries match the unsharded labelling exactly.
//   - Shard systems run with the Formula (5) scheduler forced off: each
//     shard streams its partitions in ascending ID order, and the
//     shard-major traversal concatenates to the global ascending order.
//     The priority scheduler would order each shard's subset by local
//     attendance, which does not concatenate to any single-system order.
//   - Graph mutations are routed by the same first-covering-non-empty
//     partition rule core.System.locate uses, over the global ascending
//     partition list — an edge lands in the identical partition and chunk
//     whatever the shard count (see ownerOf).
//   - Jobs admitted mid-stream queue at the group's round barrier
//     (Group.enterRound) instead of splicing into rounds already in flight
//     (Group.OpenJobSession ignores SessionOptions.JoinMidRound): a
//     mid-round splice appends the joiner's missed partitions per shard, so
//     its first-iteration stream order would depend on the shard count.
//     Queueing gives every dynamically attached job identical ascending
//     full iterations at any count, at the cost of up to one round of
//     admission latency.
//
// What is NOT preserved across shard counts: controller-level stats
// (rounds, suspensions, loads are per-shard and sum differently), snapshot
// version numbers (each shard versions independently; SnapshotVersion is
// the sum), and simulated I/O time (cross-shard job-state handoffs are
// metered on the cluster network and charged to the logical job's SimIONS).
package shard

import (
	"fmt"
	"sort"
	"sync"

	"graphm/internal/cluster"
	"graphm/internal/core"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/memsim"
)

// Group is a partitioned set of core.Systems behaving as one instance. It
// satisfies the admission service's backend surface (OpenJobSession /
// StatsSnapshot / Err) plus the evolve API the daemon's graph-mutation
// endpoints need.
type Group struct {
	cl  *cluster.Cluster
	sys []*core.System

	g *graph.Graph
	// parts is the global ascending-ID partition list (the unsharded
	// stream order); owner[i] is the shard index holding parts[i].
	parts []*core.Partition
	owner []int
	// perShard[s] are the partitions placed on shard s, ascending.
	perShard [][]*core.Partition
	caches   []*memsim.Cache

	// The group's round barrier (see enterRound). mu guards live, waiting
	// and every session's admitted/detachWanted flags; live counts open
	// logical sessions, waiting the ones queued for the next round.
	mu        sync.Mutex
	roundCond *sync.Cond
	live      int
	waiting   []*Session
}

// New partitions layout across n shard systems, each on its own simulated
// cluster node with memBudget bytes of memory. cc applies to every shard;
// the Formula (5) scheduler is forced off (see the package comment) and
// cc.LLCBytes must be set — each shard gets its own simulated LLC of that
// size.
func New(layout core.Layout, n int, memBudget int64, cc core.Config) (*Group, error) {
	parts := append([]*core.Partition(nil), layout.Partitions()...)
	sort.Slice(parts, func(i, j int) bool { return parts[i].ID < parts[j].ID })
	if n <= 0 {
		return nil, fmt.Errorf("shard: need at least one shard, got %d", n)
	}
	if n > len(parts) {
		return nil, fmt.Errorf("shard: %d shards over %d partitions — at most one shard per partition", n, len(parts))
	}
	if cc.LLCBytes <= 0 {
		return nil, fmt.Errorf("shard: Config.LLCBytes must be set (each shard builds its own LLC)")
	}
	cc.Scheduler = false
	cl, err := cluster.New(n, memBudget)
	if err != nil {
		return nil, err
	}
	sizes, err := cluster.GroupSizes(len(parts), n)
	if err != nil {
		return nil, err
	}
	g := &Group{cl: cl, g: layout.Graph(), parts: parts, owner: make([]int, len(parts))}
	g.roundCond = sync.NewCond(&g.mu)
	idx := 0
	for si, size := range sizes {
		node := cl.Nodes[si]
		shardParts := make([]*core.Partition, 0, size)
		for _, p := range parts[idx : idx+size] {
			// Re-host the partition blob on this shard's private disk; the
			// shard system's loads then meter this node's disk, not the
			// layout's original one.
			node.Disk.Write(p.DiskName, graph.EncodeEdges(p.Edges))
			cp := *p
			shardParts = append(shardParts, &cp)
			g.owner[idx+len(shardParts)-1] = si
		}
		idx += size
		cache, err := memsim.NewCache(memsim.DefaultConfig(cc.LLCBytes))
		if err != nil {
			return nil, err
		}
		sys, err := core.NewSystem(core.NewLayout(g.g, shardParts), node.Mem, cache, cc)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", si, err)
		}
		g.sys = append(g.sys, sys)
		g.perShard = append(g.perShard, shardParts)
		g.caches = append(g.caches, cache)
	}
	return g, nil
}

// Shards returns the number of shard systems.
func (g *Group) Shards() int { return len(g.sys) }

// System returns shard i's core.System (tests and metrics exporters).
func (g *Group) System(i int) *core.System { return g.sys[i] }

// Node returns shard i's simulated cluster node.
func (g *Group) Node(i int) *cluster.Node { return g.cl.Nodes[i] }

// PartitionsOf returns the partitions placed on shard i, ascending by ID.
func (g *Group) PartitionsOf(i int) []*core.Partition { return g.perShard[i] }

// Network returns the cluster network cross-shard handoffs are metered on.
func (g *Group) Network() *cluster.Network { return g.cl.Net }

// CacheTotals sums the per-shard simulated LLC counters.
func (g *Group) CacheTotals() (hits, misses uint64) {
	for _, c := range g.caches {
		hits += c.TotalHits()
		misses += c.TotalMisses()
	}
	return hits, misses
}

// Err returns the first failure observed by any shard.
func (g *Group) Err() error {
	for _, s := range g.sys {
		if err := s.Err(); err != nil {
			return err
		}
	}
	return nil
}

// enterRound queues s at the group's round barrier and blocks until a
// group round admits it. A round starts once every open logical session is
// waiting, and the session that completes the barrier begins every member
// on every shard before any of them streams. So each shard forms its round
// from exactly the group round's members, and a job's iteration on one
// shard never waits on a job that is still queued for another shard's
// round — which is what per-shard barriers alone allowed, and what
// deadlocked the gather. It returns false when the job withdrew (detach)
// or no shard admitted it.
func (g *Group) enterRound(s *Session) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	s.joined.Store(true)
	s.admitted = false
	g.waiting = append(g.waiting, s)
	g.maybeStartRoundLocked()
	for !s.admitted {
		if s.detachWanted {
			for i, w := range g.waiting {
				if w == s {
					g.waiting = append(g.waiting[:i], g.waiting[i+1:]...)
					break
				}
			}
			// Every shard holds the detach request already (Detach sets
			// it before detachWanted), so these begins only record the
			// withdrawal and return false.
			s.beginShardsLocked()
			return s.inIteration
		}
		g.roundCond.Wait()
	}
	return s.inIteration
}

// maybeStartRoundLocked starts a group round when every open logical
// session is waiting at the barrier.
func (g *Group) maybeStartRoundLocked() {
	if len(g.waiting) == 0 || len(g.waiting) < g.live {
		return
	}
	for _, s := range g.waiting {
		s.beginShardsLocked()
		s.admitted = true
	}
	g.waiting = g.waiting[:0]
	g.roundCond.Broadcast()
}

// leave deregisters a closed logical session and lets the barrier
// re-evaluate without it.
func (g *Group) leave() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.live--
	g.maybeStartRoundLocked()
}

// Wait blocks until every session on every shard has closed.
func (g *Group) Wait() error {
	var first error
	for _, s := range g.sys {
		if err := s.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// StatsSnapshot aggregates the shard systems' counters. Counters sum;
// NumChunks and MetadataBytes sum to the whole graph's totals (each shard
// labels only its own partitions); ChunkBytes is identical on every shard
// by construction (Formula (1) over the full graph) so shard 0's value is
// reported; PeakParallelStreams takes the max.
func (g *Group) StatsSnapshot() core.Stats {
	agg := g.sys[0].StatsSnapshot()
	for _, s := range g.sys[1:] {
		st := s.StatsSnapshot()
		agg.NumChunks += st.NumChunks
		agg.MetadataBytes += st.MetadataBytes
		agg.Rounds += st.Rounds
		agg.Suspensions += st.Suspensions
		agg.Resumes += st.Resumes
		agg.SharedLoads += st.SharedLoads
		agg.MidRoundJoins += st.MidRoundJoins
		agg.Detaches += st.Detaches
		agg.Prefetches += st.Prefetches
		agg.PrefetchHits += st.PrefetchHits
		agg.PrefetchCancels += st.PrefetchCancels
		agg.Relabels += st.Relabels
		agg.RelabelSkips += st.RelabelSkips
		if st.PeakParallelStreams > agg.PeakParallelStreams {
			agg.PeakParallelStreams = st.PeakParallelStreams
		}
	}
	return agg
}

// SnapshotVersion is the sum of the shard versions: monotone under
// mutation, but not comparable across shard counts (a global update bumps
// every shard it touches).
func (g *Group) SnapshotVersion() int {
	v := 0
	for _, s := range g.sys {
		v += s.SnapshotVersion()
	}
	return v
}

// OverrideChunks sums the live copy-on-write chunks across shards.
func (g *Group) OverrideChunks() int {
	n := 0
	for _, s := range g.sys {
		n += s.OverrideChunks()
	}
	return n
}

// ownerOf routes a vertex to the shard whose system core.System.locate
// would pick in the unsharded stream: the first covering partition with
// edges in ascending ID order, else the first covering partition. Because
// each shard's partition list is an ascending-contiguous slice of the
// global list, the owning shard's local locate then picks the same
// partition New placed there — so a mutation lands identically at any
// shard count.
func (g *Group) ownerOf(v graph.VertexID) (int, error) {
	fallback := -1
	for i, p := range g.parts {
		if int(v) >= p.SrcLo && int(v) < p.SrcHi {
			if len(p.Edges) > 0 {
				return g.owner[i], nil
			}
			if fallback < 0 {
				fallback = g.owner[i]
			}
		}
	}
	if fallback >= 0 {
		return fallback, nil
	}
	return 0, fmt.Errorf("shard: vertex %d outside every partition's source range", v)
}

// routeByShard buckets edges by owning shard, preserving the input order
// within each bucket (core.System.AddEdges preserves relative order within
// a partition's append, so per-bucket order is all that matters).
func (g *Group) routeByShard(edges []graph.Edge) ([][]graph.Edge, error) {
	buckets := make([][]graph.Edge, len(g.sys))
	for _, e := range edges {
		si, err := g.ownerOf(e.Src)
		if err != nil {
			return nil, err
		}
		buckets[si] = append(buckets[si], e)
	}
	return buckets, nil
}

// AddEdges installs a global graph update, routed to the owning shards in
// ascending shard order. Returns the group snapshot version after the
// update.
func (g *Group) AddEdges(edges []graph.Edge) (int, error) {
	buckets, err := g.routeByShard(edges)
	if err != nil {
		return g.SnapshotVersion(), err
	}
	for si, b := range buckets {
		if len(b) == 0 {
			continue
		}
		if _, err := g.sys[si].AddEdges(b); err != nil {
			return g.SnapshotVersion(), fmt.Errorf("shard %d: %w", si, err)
		}
	}
	return g.SnapshotVersion(), nil
}

// AddEdgesFor installs a job-private mutation, routed like AddEdges.
func (g *Group) AddEdgesFor(jobID int, edges []graph.Edge) error {
	buckets, err := g.routeByShard(edges)
	if err != nil {
		return err
	}
	for si, b := range buckets {
		if len(b) == 0 {
			continue
		}
		if err := g.sys[si].AddEdgesFor(jobID, b); err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
	}
	return nil
}

// RemoveEdges deletes every edge matching pred from the global stream. The
// shards are scanned in ascending order, so a stateful predicate (the
// daemon's multiset remove) observes edges in exactly the global
// ascending-partition order a single system would show it.
func (g *Group) RemoveEdges(pred func(graph.Edge) bool) (version, removed int, err error) {
	for si, s := range g.sys {
		_, n, err := s.RemoveEdges(pred)
		removed += n
		if err != nil {
			return g.SnapshotVersion(), removed, fmt.Errorf("shard %d: %w", si, err)
		}
	}
	return g.SnapshotVersion(), removed, nil
}

// RemoveEdgesFor deletes matching edges from jobID's private view, scanned
// in ascending shard order like RemoveEdges.
func (g *Group) RemoveEdgesFor(jobID int, pred func(graph.Edge) bool) (removed int, err error) {
	for si, s := range g.sys {
		n, err := s.RemoveEdgesFor(jobID, pred)
		removed += n
		if err != nil {
			return removed, fmt.Errorf("shard %d: %w", si, err)
		}
	}
	return removed, nil
}

// meterHandoff charges the logical job for shipping its per-vertex state to
// the next shard in the gather order — the scatter/gather analogue of the
// paper's network-bound distributed runs, metered on the shared 1 Gb/s
// cluster network with its contention model.
func (g *Group) meterHandoff(j *engine.Job) {
	if len(g.sys) < 2 {
		return
	}
	done := g.cl.Net.StartStream()
	ns := g.cl.Net.TransferNS(uint64(j.Prog.StateBytes()))
	done()
	j.AddMetrics(engine.Metrics{SimIONS: ns})
}
