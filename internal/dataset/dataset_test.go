package dataset

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	good := &Dataset{X: [][]float64{{1, 2}, {3, 4}}, Labels: []int{0, 1}, Classes: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	cases := []*Dataset{
		{X: [][]float64{{1}}, Labels: []int{0}, Targets: []float64{1}, Classes: 1}, // both responses
		{X: [][]float64{{1}}}, // no responses
		{X: [][]float64{{1}, {2}}, Labels: []int{0}, Classes: 1},       // label count
		{X: [][]float64{{1}, {2, 3}}, Labels: []int{0, 0}, Classes: 1}, // ragged
		{X: [][]float64{{1}}, Labels: []int{5}, Classes: 2},            // label range
	}
	for i, d := range cases {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: invalid dataset accepted", i)
		}
	}
}

func TestSubset(t *testing.T) {
	d := &Dataset{X: [][]float64{{0}, {1}, {2}}, Labels: []int{0, 1, 0}, Classes: 2}
	s := d.Subset([]int{2, 0})
	if s.N() != 2 || s.X[0][0] != 2 || s.Labels[1] != 0 {
		t.Fatalf("Subset wrong: %+v", s)
	}
}

func TestSplit(t *testing.T) {
	d := MNISTLike(100, 1)
	rng := rand.New(rand.NewPCG(5, 6))
	train, test := d.Split(0.8, rng)
	if train.N() != 80 || test.N() != 20 {
		t.Fatalf("Split sizes = %d,%d", train.N(), test.N())
	}
	if err := train.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBootstrap(t *testing.T) {
	d := MNISTLike(10, 1)
	rng := rand.New(rand.NewPCG(1, 1))
	b := d.Bootstrap(50, rng)
	if b.N() != 50 {
		t.Fatalf("Bootstrap N = %d", b.N())
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFlipLabels(t *testing.T) {
	d := MNISTLike(100, 2)
	orig := append([]int(nil), d.Labels...)
	rng := rand.New(rand.NewPCG(9, 9))
	flipped := d.FlipLabels(0.2, rng)
	if len(flipped) != 20 {
		t.Fatalf("flipped %d rows, want 20", len(flipped))
	}
	for _, i := range flipped {
		if d.Labels[i] == orig[i] {
			t.Fatalf("row %d not actually flipped", i)
		}
		if d.Labels[i] < 0 || d.Labels[i] >= d.Classes {
			t.Fatalf("row %d flipped out of range: %d", i, d.Labels[i])
		}
	}
}

func TestMixtureDeterminism(t *testing.T) {
	a := MNISTLike(50, 42)
	b := MNISTLike(50, 42)
	for i := range a.X {
		for j := range a.X[i] {
			if a.X[i][j] != b.X[i][j] {
				t.Fatal("same seed produced different data")
			}
		}
	}
	c := MNISTLike(50, 43)
	same := true
	for i := range a.X {
		for j := range a.X[i] {
			if a.X[i][j] != c.X[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestMixtureBalancedAndValid(t *testing.T) {
	d := CIFAR10Like(200, 3)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, d.Classes)
	for _, y := range d.Labels {
		counts[y]++
	}
	for c, n := range counts {
		if n != 20 {
			t.Fatalf("class %d has %d rows, want 20", c, n)
		}
	}
}

func TestRegressionGenerator(t *testing.T) {
	d := Regression(RegressionConfig{Name: "r", N: 100, Dim: 5, Noise: 0.1, Seed: 7})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if !d.IsRegression() {
		t.Fatal("not regression")
	}
	// Targets must be finite and not constant.
	var lo, hi = math.Inf(1), math.Inf(-1)
	for _, y := range d.Targets {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			t.Fatalf("bad target %v", y)
		}
		lo = math.Min(lo, y)
		hi = math.Max(hi, y)
	}
	if hi-lo < 0.1 {
		t.Fatal("targets nearly constant")
	}
}

func TestIrisLike(t *testing.T) {
	d := IrisLike(0, 1)
	if d.N() != 150 || d.Dim() != 4 || d.Classes != 3 {
		t.Fatalf("IrisLike shape: n=%d dim=%d classes=%d", d.N(), d.Dim(), d.Classes)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSellers(t *testing.T) {
	owners := Sellers(7, 3)
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i := range want {
		if owners[i] != want[i] {
			t.Fatalf("Sellers = %v", owners)
		}
	}
}

func TestCSVRoundTripClassification(t *testing.T) {
	d := MNISTLike(20, 11)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualData(t, d, got)
}

func TestCSVRoundTripRegression(t *testing.T) {
	d := Regression(RegressionConfig{N: 15, Dim: 3, Noise: 0.2, Seed: 5})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualData(t, d, got)
}

func TestReadCSVErrors(t *testing.T) {
	for _, raw := range []string{
		"1.0\n",          // single column
		"1.0,2.0\nx,1\n", // bad float
		"1.0,zzz\n",      // bad label
		"1.0,-3\n",       // negative label
		"1,2,0\n1,1\n",   // ragged
	} {
		if _, err := ReadCSV(bytes.NewBufferString(raw), false); err == nil {
			t.Errorf("ReadCSV(%q) accepted", raw)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, d := range []*Dataset{
		MNISTLike(25, 4),
		Regression(RegressionConfig{N: 10, Dim: 2, Noise: 0.3, Seed: 6}),
	} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, d); err != nil {
			t.Fatal(err)
		}
		// The header read takes exactly its 24 bytes: the registry's
		// open-time scan reads no payload.
		r := bytes.NewReader(buf.Bytes())
		if h, err := ReadBinaryHeader(r); err != nil || h.EncodedBytes() != int64(buf.Len()) || r.Len() != buf.Len()-24 {
			t.Fatalf("header %+v, err %v, %d of %d bytes left", h, err, r.Len(), buf.Len())
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		assertEqualData(t, d, got)
	}

	// Pinned encodings, one hex string per field: header (magic "KNNS",
	// version, flags, n, dim, classes), row-major float64 features, then
	// int32 labels or float64 targets, all little-endian.
	class := FromFlat([]float64{1, -2, 0.5, 3, -0.25, 0}, 3, 2)
	class.Labels, class.Classes = []int{0, 2, 1}, 3
	reg := FromFlat([]float64{1.5, -2, 0}, 3, 1)
	reg.Targets = []float64{0.5, -1, 3}
	for _, pin := range []struct {
		d      *Dataset
		fields []string
	}{
		{class, []string{
			"534e4e4b", "01000000", "00000000", "03000000", "02000000", "03000000",
			"000000000000f03f", "00000000000000c0", "000000000000e03f",
			"0000000000000840", "000000000000d0bf", "0000000000000000",
			"00000000", "02000000", "01000000",
		}},
		{reg, []string{
			"534e4e4b", "01000000", "01000000", "03000000", "01000000", "00000000",
			"000000000000f83f", "00000000000000c0", "0000000000000000",
			"000000000000e03f", "000000000000f0bf", "0000000000000840",
		}},
	} {
		want := strings.Join(pin.fields, "")
		var buf bytes.Buffer
		if err := WriteBinary(&buf, pin.d); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != want {
			t.Fatalf("encoding of %d-row set (regression %v):\n got %s\nwant %s",
				pin.d.N(), pin.d.IsRegression(), got, want)
		}
		raw, _ := hex.DecodeString(want)
		got, err := ReadBinary(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		assertEqualData(t, pin.d, got)
		if got.Classes != pin.d.Classes || got.IsRegression() != pin.d.IsRegression() {
			t.Fatalf("decoded classes %d regression %v, want %d %v",
				got.Classes, got.IsRegression(), pin.d.Classes, pin.d.IsRegression())
		}
	}
}

func TestReadBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestClone(t *testing.T) {
	d := MNISTLike(5, 1)
	c := d.Clone()
	c.X[0][0] = 1e9
	c.Labels[0] = 1
	if d.X[0][0] == 1e9 {
		t.Fatal("Clone aliases features")
	}
}

func assertEqualData(t *testing.T, want, got *Dataset) {
	t.Helper()
	if got.N() != want.N() || got.Dim() != want.Dim() {
		t.Fatalf("shape mismatch: got %dx%d want %dx%d", got.N(), got.Dim(), want.N(), want.Dim())
	}
	for i := range want.X {
		for j := range want.X[i] {
			if got.X[i][j] != want.X[i][j] {
				t.Fatalf("X[%d][%d] = %v want %v", i, j, got.X[i][j], want.X[i][j])
			}
		}
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("Labels[%d] = %d want %d", i, got.Labels[i], want.Labels[i])
		}
	}
	for i := range want.Targets {
		if got.Targets[i] != want.Targets[i] {
			t.Fatalf("Targets[%d] = %v want %v", i, got.Targets[i], want.Targets[i])
		}
	}
}
