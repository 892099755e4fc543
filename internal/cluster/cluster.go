// Package cluster simulates the 128-node testbed of the paper's distributed
// experiments (PowerGraph and Chaos, Section 5.1): nodes with private
// simulated memory and a byte-metered 1-Gigabit network with a contention
// model. The PowerGraph and Chaos substrates build over a group of nodes.
package cluster

import (
	"fmt"
	"sync/atomic"

	"graphm/internal/storage"
)

// Network meters simulated traffic. Bandwidth contention follows the
// paper's observation that concurrent jobs on Chaos perform *worse* than
// sequential ones: k simultaneous streams share the NIC and pay an
// interleaving penalty beyond fair division.
type Network struct {
	// BytesPerSecond is the per-node NIC bandwidth (1 Gb/s ≈ 125 MB/s).
	BytesPerSecond float64
	// ContentionPenalty is the extra fractional cost per additional
	// concurrent stream (0.15 ≈ 15% loss per extra stream).
	ContentionPenalty float64

	bytes   atomic.Uint64
	msgs    atomic.Uint64
	streams atomic.Int64
}

// NewNetwork returns a 1 Gb/s network with the default contention penalty.
func NewNetwork() *Network {
	return &Network{BytesPerSecond: 125e6, ContentionPenalty: 0.15}
}

// StartStream registers a concurrent transfer stream; call the returned
// function when the stream ends.
func (n *Network) StartStream() func() {
	n.streams.Add(1)
	return func() { n.streams.Add(-1) }
}

// TransferNS meters a transfer of b bytes and returns its simulated
// duration given current stream concurrency.
func (n *Network) TransferNS(b uint64) uint64 {
	n.bytes.Add(b)
	n.msgs.Add(1)
	k := n.streams.Load()
	if k < 1 {
		k = 1
	}
	eff := n.BytesPerSecond / (float64(k) * (1 + n.ContentionPenalty*float64(k-1)))
	return uint64(float64(b) / eff * 1e9)
}

// Bytes returns total bytes transferred.
func (n *Network) Bytes() uint64 { return n.bytes.Load() }

// Messages returns the number of metered transfers.
func (n *Network) Messages() uint64 { return n.msgs.Load() }

// Node is one simulated machine.
type Node struct {
	ID   int
	Disk *storage.Disk
	Mem  *storage.Memory
}

// Cluster is a set of nodes sharing one network.
type Cluster struct {
	Nodes []*Node
	Net   *Network
}

// New builds a cluster of n nodes, each with the given memory budget.
func New(n int, memBudget int64) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", n)
	}
	c := &Cluster{Net: NewNetwork()}
	for i := 0; i < n; i++ {
		disk := storage.NewDisk()
		c.Nodes = append(c.Nodes, &Node{
			ID:   i,
			Disk: disk,
			Mem:  storage.NewMemory(disk, memBudget),
		})
	}
	return c, nil
}
