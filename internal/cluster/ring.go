// Package cluster turns N svserver processes into one valuation service: a
// consistent-hash ring places content-addressed dataset shards on peers, a
// scatter-gather coordinator splits a valuation into per-shard sub-jobs over
// the existing by-reference wire protocol and async job API, and an exact
// merge layer k-way-merges the shard-local sorted neighbor lists and replays
// the KNN-Shapley recursion over the global order — bit-identical to a
// single-node Evaluate.
//
// The package has two halves. ComputeShardReport (worker.go) is the
// per-peer side: it computes one shard's sorted top-Limit neighbor lists,
// which internal/server's shard endpoints run as a job on the peer's own
// job manager and serve over POST /shard/jobs + GET /shard/jobs/{id}/result.
// Coordinator (coordinator.go) is the
// fan-out side: shard placement on the ring, idempotent dataset push, bounded
// per-peer in-flight submission with retry/backoff and replica reassignment,
// cancellation fan-out, and the merge.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is how many virtual nodes each peer contributes to the ring.
// More virtual nodes smooth the key distribution across peers at the cost
// of a larger (still tiny) sorted point table.
const DefaultVNodes = 64

// Ring is a consistent-hash ring over peer URLs: each peer owns DefaultVNodes
// pseudo-random points on a 64-bit circle, and a key belongs to the first
// point at or clockwise of its hash. Ties between points (distinct peers
// hashing onto the same position) are broken per key by highest rendezvous
// score, so a tie never resolves by peer-list order. The ring is immutable
// after New; membership changes build a new Ring, and because points depend
// only on (peer, vnode), every key not owned by the changed peer keeps its
// owner — the stability property that keeps shard placement (and therefore
// peer-side dataset caches) warm across valuations.
type Ring struct {
	peers  []string
	points []ringPoint
}

// ringPoint is one virtual node: a position on the circle and the peer that
// owns it.
type ringPoint struct {
	hash uint64
	peer int // index into Ring.peers
}

// hash64 is the ring's hash: FNV-1a over s, passed through a splitmix64
// finalizer. Placement only needs a stable, well-mixed 64-bit value, not
// cryptographic strength — but raw FNV-1a is not well mixed: keys differing
// only in their last bytes land within ~2⁴⁴ of each other on the 2⁶⁴ circle
// (the trailing bytes see too few multiplies), which parks whole runs of
// related keys on one peer. The finalizer restores avalanche.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewRing builds a ring over peers with DefaultVNodes virtual nodes per
// peer. Peer order does not matter: placement depends only on the peer
// strings themselves.
func NewRing(peers []string) *Ring {
	r := &Ring{peers: append([]string(nil), peers...)}
	r.points = make([]ringPoint, 0, len(peers)*DefaultVNodes)
	for pi, p := range r.peers {
		for v := 0; v < DefaultVNodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: hash64(fmt.Sprintf("%s#%d", p, v)),
				peer: pi,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		pa, pb := r.points[a], r.points[b]
		if pa.hash != pb.hash {
			return pa.hash < pb.hash
		}
		// Stable table order for colliding points; the per-key rendezvous
		// tiebreak below decides which of them actually wins a key.
		return r.peers[pa.peer] < r.peers[pb.peer]
	})
	return r
}

// Peers returns the ring's members (a copy).
func (r *Ring) Peers() []string { return append([]string(nil), r.peers...) }

// Owner returns the peer owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	owners := r.OwnersN(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// OwnersN returns up to n distinct peers for key, in preference order: the
// owner first, then the successive distinct peers clockwise — the replica
// set used for fingerprint-keyed replication of hot registry entries. When
// several virtual nodes share the exact position the walk reaches, the one
// with the highest rendezvous score hash(key ‖ peer) wins first, so
// collisions resolve per key instead of by list order.
func (r *Ring) OwnersN(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.peers) {
		n = len(r.peers)
	}
	kh := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })

	owners := make([]string, 0, n)
	seen := make(map[int]bool, n)
	take := func(peer int) {
		if !seen[peer] && len(owners) < n {
			seen[peer] = true
			owners = append(owners, r.peers[peer])
		}
	}
	for step := 0; step < len(r.points) && len(owners) < n; {
		i := (start + step) % len(r.points)
		// Gather the run of points sharing this exact position and order it
		// by descending rendezvous score before taking any of them.
		run := []int{r.points[i].peer}
		step++
		for step < len(r.points) {
			j := (start + step) % len(r.points)
			if r.points[j].hash != r.points[i].hash {
				break
			}
			run = append(run, r.points[j].peer)
			step++
		}
		if len(run) > 1 {
			sort.Slice(run, func(a, b int) bool {
				sa := hash64(key + "\x00" + r.peers[run[a]])
				sb := hash64(key + "\x00" + r.peers[run[b]])
				if sa != sb {
					return sa > sb
				}
				return r.peers[run[a]] < r.peers[run[b]]
			})
		}
		for _, p := range run {
			take(p)
		}
	}
	return owners
}
