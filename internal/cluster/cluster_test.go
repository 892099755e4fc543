package cluster

import (
	"testing"
)

func TestNewValidatesNodeCount(t *testing.T) {
	if _, err := New(0, 1<<20); err == nil {
		t.Fatal("expected error for 0 nodes")
	}
	c, err := New(4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 4 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	for i, n := range c.Nodes {
		if n.ID != i || n.Mem == nil || n.Disk == nil {
			t.Fatalf("node %d malformed", i)
		}
	}
}

func TestNetworkMetersBytes(t *testing.T) {
	n := NewNetwork()
	ns := n.TransferNS(125e6) // 1 second at full bandwidth, single stream
	if ns < 9e8 || ns > 11e8 {
		t.Fatalf("transfer = %dns, want ~1e9", ns)
	}
	if n.Bytes() != 125e6 || n.Messages() != 1 {
		t.Fatalf("meters: %d bytes, %d msgs", n.Bytes(), n.Messages())
	}
}

func TestNetworkContention(t *testing.T) {
	n := NewNetwork()
	single := n.TransferNS(1e6)

	stop1 := n.StartStream()
	stop2 := n.StartStream()
	contended := n.TransferNS(1e6)
	stop1()
	stop2()
	// Two streams: fair share halves bandwidth, plus the interleaving
	// penalty — more than 2x slower.
	if contended <= 2*single {
		t.Fatalf("contended transfer %dns not > 2x single %dns", contended, single)
	}
	after := n.TransferNS(1e6)
	if after != single {
		t.Fatalf("contention not released: %d vs %d", after, single)
	}
}
