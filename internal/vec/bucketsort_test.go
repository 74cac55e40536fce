package vec

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
)

// mnistLikeDist returns n L2 distances from one query to the points of a
// 10-class Gaussian mixture in 64 dimensions (class means on a sphere of
// radius 0.6, noise norm about 1): the profile of the MNIST-like stand-in,
// whose distances run from about 1 to about 2.3 and so cross 2.0, where the
// float64 exponent changes. Up to mnistPoolN distances come from one pool
// drawn once, starting at a random position.
func mnistLikeDist(rng *rand.Rand, n int) []float64 {
	mnistPool.once.Do(func() { mnistPool.dist = drawMNISTLike(rand.New(rand.NewPCG(7, 7)), mnistPoolN) })
	if n > mnistPoolN {
		return drawMNISTLike(rng, n)
	}
	start := rng.IntN(mnistPoolN - n + 1)
	return append([]float64(nil), mnistPool.dist[start:start+n]...)
}

const mnistPoolN = 1 << 17

var mnistPool struct {
	once sync.Once
	dist []float64
}

func drawMNISTLike(rng *rand.Rand, n int) []float64 {
	const dim, classes = 64, 10
	sigma := 1 / math.Sqrt(dim)
	means := make([][]float64, classes)
	for c := range means {
		means[c] = make([]float64, dim)
		var norm float64
		for j := range means[c] {
			means[c][j] = rng.NormFloat64()
			norm += means[c][j] * means[c][j]
		}
		for j := range means[c] {
			means[c][j] *= 0.6 / math.Sqrt(norm)
		}
	}
	q := make([]float64, dim)
	for j := range q {
		q[j] = means[0][j] + sigma*rng.NormFloat64()
	}
	dist := make([]float64, n)
	for i := range dist {
		m := means[i%classes]
		var s float64
		for j := range q {
			d := m[j] + sigma*rng.NormFloat64() - q[j]
			s += d * d
		}
		dist[i] = math.Sqrt(s)
	}
	return dist
}

// distShapes are the inputs the bucket sort must handle without going
// quadratic: a realistic profile plus the skewed ones that pile keys into
// a few buckets.
var distShapes = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}{
	{"mnist", mnistLikeDist},
	{"equal", func(_ *rand.Rand, n int) []float64 {
		dist := make([]float64, n)
		for i := range dist {
			dist[i] = 1.5
		}
		return dist
	}},
	// Two clusters a few ulps wide, far apart: each lands in one top-level
	// bucket, which must be sorted again on its own range.
	{"clusters", func(rng *rand.Rand, n int) []float64 {
		dist := make([]float64, n)
		for i := range dist {
			c := float64(1 + rng.IntN(2))
			dist[i] = c + float64(rng.IntN(1<<20))*0x1p-52
		}
		return dist
	}},
	{"zeros", func(rng *rand.Rand, n int) []float64 {
		dist := make([]float64, n)
		for i := range dist {
			switch rng.IntN(3) {
			case 0:
				dist[i] = math.Copysign(0, -1)
			case 1:
				dist[i] = rng.Float64()
			}
		}
		return dist
	}},
	{"inf", func(rng *rand.Rand, n int) []float64 {
		dist := mnistLikeDist(rng, n)
		dist[rng.IntN(n)] = math.Inf(1)
		return dist
	}},
	{"nan", func(rng *rand.Rand, n int) []float64 {
		dist := mnistLikeDist(rng, n)
		for range max(n/100, 1) {
			dist[rng.IntN(n)] = math.NaN()
		}
		return dist
	}},
	{"dups", func(rng *rand.Rand, n int) []float64 {
		dist := make([]float64, n)
		for i := range dist {
			dist[i] = float64(rng.IntN(16))
		}
		return dist
	}},
	{"negative", func(rng *rand.Rand, n int) []float64 {
		dist := mnistLikeDist(rng, n)
		for i := range dist {
			dist[i] = -dist[i]
		}
		return dist
	}},
	{"float32", func(rng *rand.Rand, n int) []float64 {
		dist := mnistLikeDist(rng, n)
		for i := range dist {
			dist[i] = float64(float32(dist[i]))
		}
		return dist
	}},
}

// bucketSortSizes cross radixMinN, the large-bucket threshold (the
// clusters shape puts half of its points in each of two buckets) and every
// change of digit width, from 8 bits below 2⁹ points to the 16-bit cap
// from 2¹⁶ on.
func bucketSortSizes() []int {
	sizes := []int{1, 2, radixMinN - 1, radixMinN, radixMinN + 1, 2 * maxBucket, 2*maxBucket + 2}
	for j := 9; j <= 17; j++ {
		sizes = append(sizes, 1<<j-1, 1<<j)
	}
	return sizes
}

// Up to refMaxN the result is compared with refArgsort; above it, with the
// one ordering refArgsort can return: a permutation strictly ascending by
// (DistKeyBits, index). That keeps the 2¹⁷-point cases linear to check.
func TestArgsortDistSkewedShapes(t *testing.T) {
	const refMaxN = 1 << 12
	var ds DistSorter
	var buf []int
	for _, sh := range distShapes {
		for _, n := range bucketSortSizes() {
			rng := rand.New(rand.NewPCG(uint64(n), 21))
			dist := sh.gen(rng, n)
			buf = ds.ArgsortInto(buf, dist)
			if n <= refMaxN {
				checkArgsort(t, dist, buf)
			} else {
				checkAscending(t, sh.name, dist, buf)
			}
		}
	}
}

func checkAscending(t *testing.T, shape string, dist []float64, idx []int) {
	t.Helper()
	seen := make([]bool, len(dist))
	for r, i := range idx {
		if i < 0 || i >= len(dist) || seen[i] {
			t.Fatalf("%s n=%d: idx[%d] = %d is out of range or repeated", shape, len(dist), r, i)
		}
		seen[i] = true
		if r == 0 {
			continue
		}
		p := idx[r-1]
		if kp, ki := DistKeyBits(dist[p]), DistKeyBits(dist[i]); kp > ki || kp == ki && p > i {
			t.Fatalf("%s n=%d: idx[%d] = %d (dist %v) after %d (dist %v)", shape, len(dist), r, i, dist[i], p, dist[p])
		}
	}
	if len(idx) != len(dist) {
		t.Fatalf("%s: len %d, want %d", shape, len(idx), len(dist))
	}
}

// wantPacked is the packed ranking by definition: the reference ordering
// with each index shifted by offset and flagged when correct.
func wantPacked(dist []float64, correct []bool, offset int, flag uint32) []uint32 {
	want := make([]uint32, len(dist))
	for r, i := range refArgsort(dist) {
		want[r] = uint32(offset + i)
		if correct[i] {
			want[r] |= flag
		}
	}
	return want
}

func checkPacked(t *testing.T, dist []float64, correct []bool, offset int, flag uint32, got []uint32) {
	t.Helper()
	want := wantPacked(dist, correct, offset, flag)
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("n=%d offset=%d: packed[%d] = %#x, want %#x", len(dist), offset, r, got[r], want[r])
		}
	}
}

// The packed entry point is the []int ordering with each index shifted by
// offset and flagged, bit for bit, for random offsets and flags; and it
// agrees with ArgsortDistInto on the same sorter.
func TestPackedIntoMatchesArgsort(t *testing.T) {
	const flag = uint32(1) << 31
	var ds DistSorter
	var buf []uint32
	for _, sh := range distShapes {
		for _, n := range []int{0, 5, radixMinN, 3000} {
			rng := rand.New(rand.NewPCG(uint64(n), 22))
			dist := sh.gen(rng, max(n, 1))[:n]
			correct := make([]bool, n)
			for i := range correct {
				correct[i] = rng.IntN(2) == 0
			}
			offset := rng.IntN(1 << 30)
			buf = ds.PackedInto(buf, dist, correct, offset, flag)
			checkPacked(t, dist, correct, offset, flag, buf)
			order := ArgsortDistInto(nil, dist)
			for r, i := range order {
				if want := uint32(offset+i) | flag*b2u32(correct[i]); buf[r] != want {
					t.Fatalf("%s n=%d: packed[%d] = %#x, ArgsortDistInto gives %#x", sh.name, n, r, buf[r], want)
				}
			}
		}
	}
	// Without flags the packed ranking is the index order itself.
	dist := mnistLikeDist(rand.New(rand.NewPCG(1, 23)), 500)
	got := ds.PackedInto(nil, dist, nil, 0, flag)
	for r, i := range ArgsortDistInto(nil, dist) {
		if got[r] != uint32(i) {
			t.Fatalf("nil correct: packed[%d] = %d, want %d", r, got[r], i)
		}
	}
}

// FuzzPackedArgsortDist feeds byte-derived float64s, correctness flags and
// an offset through the packed entry point and checks it against the
// reference ordering, packed.
func FuzzPackedArgsortDist(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint32(0), uint8(1))
	f.Add([]byte{0x3f, 0xf0, 0, 0, 0, 0, 0, 1, 0x3f, 0xf0, 0, 0, 0, 0, 0, 2, 0x40, 0, 0, 0, 0, 0, 0, 0}, uint32(7), uint8(200))
	f.Fuzz(func(t *testing.T, raw []byte, offset uint32, grow uint8) {
		n := len(raw) / 8
		if n == 0 {
			return
		}
		dist := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			var bits uint64
			for j := 0; j < 8; j++ {
				bits = bits<<8 | uint64(raw[i*8+j])
			}
			dist = append(dist, math.Float64frombits(bits))
		}
		// Replicate up to grow·4 entries, nudging each copy by a few ulps,
		// so inputs reach the bucket path and its large-bucket passes.
		for i := 0; len(dist) < int(grow)*4; i++ {
			dist = append(dist, math.Float64frombits(math.Float64bits(dist[i])+uint64(i%5)))
		}
		correct := make([]bool, len(dist))
		for i := range correct {
			correct[i] = raw[i%len(raw)]&1 != 0
		}
		const flag = uint32(1) << 31
		off := int(offset % (1 << 30))
		var ds DistSorter
		checkPacked(t, dist, correct, off, flag, ds.PackedInto(nil, dist, correct, off, flag))
	})
}

// SortKeys sorts raw 64-bit keys with their payloads exactly as a stable
// comparison sort does: random keys drawn from a few hundred values (heavy
// duplicates across the whole 64-bit range, like LSH bucket hashes),
// unique random keys, all-equal keys, and sizes on both sides of
// radixMinN; one sorter serves every case, so stale scratch would show.
func TestSortKeysMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	shapes := []struct {
		name string
		key  func(pool []uint64) uint64
	}{
		{"duplicates", func(pool []uint64) uint64 { return pool[rng.IntN(len(pool))] }},
		{"unique", func([]uint64) uint64 { return rng.Uint64() }},
		{"equal", func([]uint64) uint64 { return 0x9e3779b97f4a7c15 }},
		{"narrow", func([]uint64) uint64 { return 1<<40 + rng.Uint64N(300) }},
	}
	var ds DistSorter
	for _, sh := range shapes {
		for _, n := range []int{0, 1, 2, 17, radixMinN - 1, radixMinN, radixMinN + 1, 1000, 5000, 1 << 16} {
			pool := make([]uint64, 1+rng.IntN(300))
			for i := range pool {
				pool[i] = rng.Uint64()
			}
			keys := make([]uint64, n)
			pay := make([]uint32, n)
			for i := range keys {
				keys[i], pay[i] = sh.key(pool), uint32(i)
			}
			type pair struct {
				k uint64
				p uint32
			}
			want := make([]pair, n)
			for i := range want {
				want[i] = pair{keys[i], pay[i]}
			}
			sort.SliceStable(want, func(i, j int) bool { return want[i].k < want[j].k })
			ds.SortKeys(keys, pay)
			for i, w := range want {
				if keys[i] != w.k || pay[i] != w.p {
					t.Fatalf("%s n=%d: entry %d is (%#x, %d), want (%#x, %d)", sh.name, n, i, keys[i], pay[i], w.k, w.p)
				}
			}
		}
	}
}
