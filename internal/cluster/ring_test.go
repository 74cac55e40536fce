package cluster

import (
	"fmt"
	"testing"
)

func ringPeers(n int) []string {
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return peers
}

func TestRingDeterminism(t *testing.T) {
	peers := ringPeers(5)
	a := NewRing(peers)
	// Same members in a different order must place every key identically.
	shuffled := []string{peers[3], peers[0], peers[4], peers[2], peers[1]}
	b := NewRing(shuffled)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("%016x", uint64(i)*0x9e3779b97f4a7c15)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %s: owner %s (ordered) != %s (shuffled)", key, a.Owner(key), b.Owner(key))
		}
	}
}

func TestRingOwnersDistinct(t *testing.T) {
	r := NewRing(ringPeers(4))
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		owners := r.OwnersN(key, 3)
		if len(owners) != 3 {
			t.Fatalf("key %s: got %d owners, want 3", key, len(owners))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("key %s: duplicate owner %s in %v", key, o, owners)
			}
			seen[o] = true
		}
	}
}

func TestRingOwnersNClamped(t *testing.T) {
	r := NewRing(ringPeers(2))
	if got := r.OwnersN("k", 5); len(got) != 2 {
		t.Fatalf("OwnersN(5) over 2 peers = %v, want both peers", got)
	}
	if got := r.OwnersN("k", 0); got != nil {
		t.Fatalf("OwnersN(0) = %v, want nil", got)
	}
	empty := NewRing(nil)
	if got := empty.Owner("k"); got != "" {
		t.Fatalf("empty ring owner = %q, want empty", got)
	}
}

// TestRingStability pins the consistent-hashing property: removing one peer
// moves only the keys that peer owned; every other key keeps its owner.
func TestRingStability(t *testing.T) {
	peers := ringPeers(6)
	full := NewRing(peers)
	removed := peers[2]
	smaller := NewRing(append(append([]string(nil), peers[:2]...), peers[3:]...))
	moved := 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("shard-%d", i)
		before, after := full.Owner(key), smaller.Owner(key)
		if before == removed {
			moved++
			if after == removed {
				t.Fatalf("key %s still owned by removed peer", key)
			}
			continue
		}
		if before != after {
			t.Fatalf("key %s moved %s -> %s though %s was untouched", key, before, after, before)
		}
	}
	if moved == 0 {
		t.Fatal("no key was owned by the removed peer; distribution is broken")
	}
}

// TestRingBalance sanity-checks that virtual nodes spread keys: no peer of
// five should own more than half of 5000 keys.
func TestRingBalance(t *testing.T) {
	peers := ringPeers(5)
	r := NewRing(peers)
	counts := map[string]int{}
	const keys = 5000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("%d", i))]++
	}
	for _, p := range peers {
		if counts[p] == 0 {
			t.Fatalf("peer %s owns no keys: %v", p, counts)
		}
		if counts[p] > keys/2 {
			t.Fatalf("peer %s owns %d of %d keys; distribution is degenerate", p, counts[p], keys)
		}
	}
}
