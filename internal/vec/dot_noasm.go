//go:build !amd64

package vec

// Portable stand-ins for the assembly kernels of dot_amd64.s. The dots run
// the Go trees of dot_kernels.go, which the assembly matches bit for bit,
// so distances computed here are those of an amd64 host.

func dot1x64(a, b []float64) float64 { return dotTreeGo64(a, b) }

func dot1x32(a, b []float32) float32 { return dotTreeGo32(a, b) }

// sqL2Sweep8 has no portable body: SqL2NormDotRows runs dot4x64.
func sqL2Sweep8(dst []float64, stride int, flat []float64, n, dim int, norms, qflat []float64, nq int) int {
	return 0
}

func sqL2Gemv4x32(dst4 []float64, n int, flat []float32, dim int, norms []float32, q0, q1, q2, q3 []float32, qn *[4]float32) {
	sqL2Gemv4x32Go(dst4, n, flat, dim, norms, q0, q1, q2, q3, qn)
}

// The four-lane family has no portable body: DotRows, DotRows2 and
// SqL2x4 run their Go loops.
func dotRows4(dst, mat, x []float64) bool { return false }

func dotRows4x2(dst0, dst1, mat, x0, x1 []float64) bool { return false }

func sqL2x4(out *[4]float64, a0, a1, a2, a3, q []float64) bool { return false }
