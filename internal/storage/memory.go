package storage

import (
	"container/list"
	"fmt"
	"sync"
)

// Memory is a bounded buffer pool over a Disk. Buffers are ref-counted: a
// buffer with live references (pinned) cannot be evicted; unpinned buffers
// are evicted LRU-first when a new load would exceed the budget.
//
// GraphM's sharing controller pins one buffer per partition and hands the
// same buffer to every concurrent job; the baseline (-S/-C) execution modes
// load one buffer *per job*, reproducing the redundant copies of Figure 1(a).
type Memory struct {
	disk   *Disk
	budget int64

	mu       sync.Mutex
	resident map[string]*Buffer
	lru      *list.List // of *Buffer, front = most recent
	used     int64
	peak     int64
	// jobUsage tracks additional per-job bytes (job-specific data) registered
	// via ReserveJobData, included in usage accounting.
	jobBytes int64

	faults     uint64 // loads that required a disk read
	rehits     uint64 // loads satisfied by a resident buffer
	evicted    uint64
	overcommit uint64 // loads admitted past the budget (all victims pinned)

	nextAddr uint64 // simulated physical address allocator
}

// AllocAddr reserves size bytes of simulated physical address space and
// returns the 64-byte-aligned base. Jobs use it for their job-specific data
// regions; Load uses it for buffer placement.
func (m *Memory) AllocAddr(size int64) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.allocAddrLocked(size)
}

func (m *Memory) allocAddrLocked(size int64) uint64 {
	const align = 64
	m.nextAddr = (m.nextAddr + align - 1) &^ (align - 1)
	base := m.nextAddr
	m.nextAddr += uint64(size)
	return base
}

// Buffer is a resident copy of a disk blob.
type Buffer struct {
	Key  string
	Data []byte

	// BaseAddr is the buffer's base address in the simulated physical
	// address space; the LLC model indexes cache sets with it. A fresh load
	// gets a fresh address (a new physical allocation); a resident re-use
	// keeps its address, which is how shared buffers produce LLC hits
	// across jobs while per-job copies do not.
	BaseAddr uint64

	refs int
	elem *list.Element
	mem  *Memory
}

// NewMemory creates a buffer pool with the given budget in bytes over disk.
func NewMemory(disk *Disk, budget int64) *Memory {
	return &Memory{
		disk:     disk,
		budget:   budget,
		resident: make(map[string]*Buffer),
		lru:      list.New(),
	}
}

// Disk returns the backing disk (for stream registration and metering).
func (m *Memory) Disk() *Disk { return m.disk }

// Load returns a pinned buffer for key, reading from disk if it is not
// resident; io classifies any physical transfer (cold load vs contended
// re-read) so callers can attribute simulated I/O time. Callers must Release the buffer. If key
// identifies a distinct per-job copy (baseline modes), pass a distinct key
// such as "p3#job7".
func (m *Memory) Load(key, diskName string) (buf *Buffer, io IOKind, err error) {
	m.mu.Lock()
	if buf, ok := m.resident[key]; ok {
		buf.refs++
		m.touchLocked(buf)
		m.rehits++
		m.mu.Unlock()
		return buf, IONone, nil
	}
	m.mu.Unlock()

	// Read outside the lock — through the disk's page cache, so a blob
	// another job already pulled in costs no physical I/O even when this
	// job keeps a private buffer copy. Double-check residence on re-acquire.
	blob, kind, err := m.disk.ReadCached(diskName)
	if err != nil {
		return nil, IONone, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if buf, ok := m.resident[key]; ok {
		buf.refs++
		m.touchLocked(buf)
		m.rehits++
		return buf, IONone, nil
	}
	need := int64(len(blob))
	m.evictForLocked(need)
	buf = &Buffer{Key: key, Data: blob, refs: 1, mem: m, BaseAddr: m.allocAddrLocked(need)}
	buf.elem = m.lru.PushFront(buf)
	m.resident[key] = buf
	m.used += need
	if m.used+m.jobBytes > m.peak {
		m.peak = m.used + m.jobBytes
	}
	m.faults++
	m.disk.SetReserved(m.used + m.jobBytes)
	return buf, kind, nil
}

// PinCount returns the number of live references to key's resident buffer,
// 0 when the buffer is unpinned or not resident. Exposed for leak checks.
func (m *Memory) PinCount(key string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if buf, ok := m.resident[key]; ok {
		return buf.refs
	}
	return 0
}

// Acquire pins an already-resident buffer without disk fallback; ok reports
// whether it was resident.
func (m *Memory) Acquire(key string) (*Buffer, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	buf, ok := m.resident[key]
	if !ok {
		return nil, false
	}
	buf.refs++
	m.touchLocked(buf)
	m.rehits++
	return buf, true
}

// Release unpins a buffer obtained from Load or Acquire.
func (b *Buffer) Release() {
	m := b.mem
	m.mu.Lock()
	defer m.mu.Unlock()
	if b.refs <= 0 {
		panic("storage: Release of unpinned buffer " + b.Key)
	}
	b.refs--
}

// Drop removes key from memory if resident and unpinned.
func (m *Memory) Drop(key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if buf, ok := m.resident[key]; ok && buf.refs == 0 {
		m.removeLocked(buf)
	}
}

// ReserveJobData accounts bytes of job-specific data (rank arrays, frontiers)
// against the memory budget. Negative deltas release the reservation;
// releasing more than was reserved is a caller accounting bug and panics
// (silently clamping hid the bug while corrupting Used/Peak).
func (m *Memory) ReserveJobData(delta int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.jobBytes+delta < 0 {
		panic(fmt.Sprintf("storage: ReserveJobData(%d) released below zero (reserved %d)", delta, m.jobBytes))
	}
	m.jobBytes += delta
	if m.used+m.jobBytes > m.peak {
		m.peak = m.used + m.jobBytes
	}
	m.disk.SetReserved(m.used + m.jobBytes)
}

// Used returns bytes currently resident (buffers + job data).
func (m *Memory) Used() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used + m.jobBytes
}

// Peak returns the high-water mark of Used — the metric of Figure 11.
func (m *Memory) Peak() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peak
}

// Faults returns loads that hit disk; Rehits returns loads served from
// residence; Evictions returns evicted buffer count.
func (m *Memory) Faults() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.faults
}

// Rehits returns the number of loads satisfied without disk I/O.
func (m *Memory) Rehits() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rehits
}

// Evictions returns the number of buffers evicted under pressure.
func (m *Memory) Evictions() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evicted
}

// Overcommits returns the number of loads admitted past the budget because
// every eviction candidate was pinned.
func (m *Memory) Overcommits() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.overcommit
}

func (m *Memory) touchLocked(buf *Buffer) {
	m.lru.MoveToFront(buf.elem)
}

func (m *Memory) removeLocked(buf *Buffer) {
	m.lru.Remove(buf.elem)
	delete(m.resident, buf.Key)
	m.used -= int64(len(buf.Data))
	m.disk.SetReserved(m.used + m.jobBytes)
}

// evictForLocked makes room for need bytes, evicting unpinned buffers
// LRU-first. When every remaining resident buffer is pinned the load is
// admitted anyway — a real OS cannot refuse memory to running processes, it
// swaps — and the overcommit counter records the pressure event (the
// paper's GridGraph-C suffers exactly this contention with many concurrent
// jobs pinning partition copies).
func (m *Memory) evictForLocked(need int64) {
	if need > m.budget {
		// A single partition larger than memory still streams through: we
		// admit it but it will be the immediate eviction victim. This mirrors
		// out-of-core engines that stream oversized partitions.
		need = m.budget
	}
	for m.used+need > m.budget {
		var victim *Buffer
		for e := m.lru.Back(); e != nil; e = e.Prev() {
			buf := e.Value.(*Buffer)
			if buf.refs == 0 {
				victim = buf
				break
			}
		}
		if victim == nil {
			m.overcommit++
			return
		}
		m.removeLocked(victim)
		m.evicted++
	}
}
