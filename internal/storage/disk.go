// Package storage simulates the two-level storage hierarchy under the graph
// engines: a "disk" of named partition blobs whose reads are metered, and a
// bounded main-memory buffer pool with LRU eviction and ref-counted shared
// buffers.
//
// The paper's machine has 32 GB of RAM over a 1 TB disk; graphs either fit in
// memory (LiveJ, Orkut, Twitter) or must stream from disk (UK-union,
// Clueweb12). Reproducing that on arbitrary hardware requires controlling the
// memory budget explicitly, which Go cannot do against the real OS page
// cache, so the hierarchy is modelled: every byte that crosses the disk →
// memory boundary is counted (Figure 12), and resident bytes are tracked for
// the memory-usage comparison (Figure 11).
package storage

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// Disk is a metered blob store keyed by partition name, with an optional
// OS-page-cache model: cached reads cost no I/O, exactly as the paper's
// in-memory graphs are "cached in the memory via memory mapping and only
// need to be read from disks once" (Figure 12 discussion) even when every
// job keeps its own buffer copy.
type Disk struct {
	mu    sync.Mutex
	blobs map[string][]byte

	// page cache: LRU over blob names, bounded by cacheCap bytes minus the
	// RAM currently reserved by process buffers (SetReserved): page cache
	// and application memory share the same physical RAM, so concurrent
	// jobs holding many buffer copies squeeze the cache — the mechanism
	// that inflates GridGraph-C's out-of-core I/O in Figure 12.
	cacheCap  int64
	reserved  int64
	cacheUsed int64
	cacheLRU  *list.List // of string (blob name), front = most recent
	cachePos  map[string]*list.Element

	everRead map[string]bool

	readBytes  atomic.Uint64
	writeBytes atomic.Uint64
	readOps    atomic.Uint64

	// SeekPenalty models interleaved sequential streams on a spinning disk:
	// k concurrent streams degrade effective bandwidth by 1+SeekPenalty*(k-1)
	// (head seeks between streams). The paper's GridGraph-C suffers exactly
	// this on out-of-core graphs, where it falls behind even sequential
	// execution.
	SeekPenalty float64
	streams     atomic.Int64
}

// StartStream registers a concurrent reader; call the returned function
// when the reader's streaming ends.
func (d *Disk) StartStream() func() {
	d.streams.Add(1)
	return func() { d.streams.Add(-1) }
}

// Contention returns the current bandwidth-degradation factor (>= 1).
func (d *Disk) Contention() float64 {
	k := d.streams.Load()
	if k <= 1 {
		return 1
	}
	p := d.SeekPenalty
	if p == 0 {
		p = 0.3
	}
	return 1 + p*float64(k-1)
}

// NewDisk returns an empty disk with no page cache.
func NewDisk() *Disk {
	return &Disk{
		blobs:    make(map[string][]byte),
		cacheLRU: list.New(),
		cachePos: make(map[string]*list.Element),
		everRead: make(map[string]bool),
	}
}

// SetPageCache bounds the simulated OS page cache; zero disables it.
func (d *Disk) SetPageCache(capacity int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cacheCap = capacity
	d.evictCacheLocked()
}

// SetReserved tells the page cache how much RAM application buffers are
// currently using; the cache shrinks to what is left.
func (d *Disk) SetReserved(bytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if bytes < 0 {
		bytes = 0
	}
	d.reserved = bytes
	d.evictCacheLocked()
}

func (d *Disk) effectiveCapLocked() int64 {
	c := d.cacheCap - d.reserved
	if c < 0 {
		return 0
	}
	return c
}

// DropCaches empties the page cache (like /proc/sys/vm/drop_caches),
// used between benchmark runs for independent measurements.
func (d *Disk) DropCaches() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cacheLRU.Init()
	d.cachePos = make(map[string]*list.Element)
	d.cacheUsed = 0
	d.everRead = make(map[string]bool)
}

// Write stores blob under name, replacing any previous content and
// invalidating its cache entry.
func (d *Disk) Write(name string, blob []byte) {
	d.mu.Lock()
	// Invalidate at the size the cache entry was admitted with (the OLD
	// blob's length), not the new blob's length: subtracting the new
	// length corrupted cacheUsed whenever a rewrite changed the size.
	if e, ok := d.cachePos[name]; ok {
		d.cacheUsed -= int64(len(d.blobs[name]))
		d.cacheLRU.Remove(e)
		delete(d.cachePos, name)
	}
	d.blobs[name] = blob
	d.mu.Unlock()
	d.writeBytes.Add(uint64(len(blob)))
}

// Read returns the blob under name, metering the transfer unconditionally
// (a raw, uncached read).
func (d *Disk) Read(name string) ([]byte, error) {
	d.mu.Lock()
	blob, ok := d.blobs[name]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("storage: no blob %q", name)
	}
	d.readBytes.Add(uint64(len(blob)))
	d.readOps.Add(1)
	return blob, nil
}

// IOKind classifies the physical cost of a load.
type IOKind int

const (
	// IONone: served without a physical transfer (resident or page cache).
	IONone IOKind = iota
	// IOCold: first-ever physical read of the blob — a compulsory,
	// sequential transfer that interleaved readers share amicably.
	IOCold
	// IOReread: a capacity re-read after page-cache eviction; concurrent
	// re-readers pay the seek-contention factor.
	IOReread
)

// ReadCached returns the blob under name through the page cache, reporting
// the physical-transfer class. Without a configured cache every read is
// physical.
func (d *Disk) ReadCached(name string) (blob []byte, kind IOKind, err error) {
	d.mu.Lock()
	blob, ok := d.blobs[name]
	if !ok {
		d.mu.Unlock()
		return nil, IONone, fmt.Errorf("storage: no blob %q", name)
	}
	if d.cacheCap > 0 {
		if e, hit := d.cachePos[name]; hit {
			d.cacheLRU.MoveToFront(e)
			d.mu.Unlock()
			return blob, IONone, nil
		}
		d.cachePos[name] = d.cacheLRU.PushFront(name)
		d.cacheUsed += int64(len(blob))
		d.evictCacheLocked()
	}
	kind = IOCold
	if d.everRead[name] {
		kind = IOReread
	} else {
		d.everRead[name] = true
	}
	d.mu.Unlock()
	d.readBytes.Add(uint64(len(blob)))
	d.readOps.Add(1)
	return blob, kind, nil
}

// evictCacheLocked trims the page cache LRU-first to the effective capacity.
func (d *Disk) evictCacheLocked() {
	for d.cacheCap > 0 && d.cacheUsed > d.effectiveCapLocked() && d.cacheLRU.Len() > 0 {
		e := d.cacheLRU.Back()
		name := e.Value.(string)
		d.cacheLRU.Remove(e)
		delete(d.cachePos, name)
		d.cacheUsed -= int64(len(d.blobs[name]))
	}
}

// Size returns the stored size of name, or 0 if absent.
func (d *Disk) Size(name string) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.blobs[name]))
}

// ReadBytes returns the total bytes transferred by Read calls — the I/O
// overhead metric of Figure 12.
func (d *Disk) ReadBytes() uint64 { return d.readBytes.Load() }

// ReadOps returns the number of Read calls.
func (d *Disk) ReadOps() uint64 { return d.readOps.Load() }

// WriteBytes returns total bytes written.
func (d *Disk) WriteBytes() uint64 { return d.writeBytes.Load() }

// ResetCounters zeroes the I/O meters, keeping the blobs.
func (d *Disk) ResetCounters() {
	d.readBytes.Store(0)
	d.writeBytes.Store(0)
	d.readOps.Store(0)
}
