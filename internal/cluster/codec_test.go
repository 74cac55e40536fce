package cluster

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"knnshapley/internal/wire"
)

func TestPackIndexRoundTrip(t *testing.T) {
	cases := []struct {
		idx     int
		correct bool
	}{{0, false}, {0, true}, {1, false}, {1<<31 - 1, true}, {123456789, false}}
	for _, c := range cases {
		idx, ok := UnpackIndex(PackIndex(c.idx, c.correct))
		if idx != c.idx || ok != c.correct {
			t.Fatalf("round trip (%d,%v) -> (%d,%v)", c.idx, c.correct, idx, ok)
		}
	}
}

func sampleReport() *ShardReport {
	return &ShardReport{
		GlobalN: 10,
		Idx: [][]uint32{
			{PackIndex(4, true), PackIndex(0, false), PackIndex(9, true)},
			{},
			{PackIndex(7, false)},
		},
		Dist: [][]float64{
			{0.5, math.Copysign(0, -1), math.Inf(1)},
			{},
			{math.NaN()},
		},
	}
}

func TestShardReportRoundTrip(t *testing.T) {
	sr := sampleReport()
	var buf bytes.Buffer
	n, err := sr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != sr.EncodedBytes() || int64(buf.Len()) != n {
		t.Fatalf("wrote %d bytes, EncodedBytes %d, buffer %d", n, sr.EncodedBytes(), buf.Len())
	}
	enc := bytes.Clone(buf.Bytes())
	got, err := ReadShardReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.GlobalN != sr.GlobalN {
		t.Fatalf("header n=%d, want %d", got.GlobalN, sr.GlobalN)
	}
	if !reflect.DeepEqual(got.Idx, sr.Idx) {
		t.Fatalf("indices differ: %v vs %v", got.Idx, sr.Idx)
	}
	// Distances must round-trip bit-exactly, NaN and -0 included.
	for ti := range sr.Dist {
		for r := range sr.Dist[ti] {
			w, g := math.Float64bits(sr.Dist[ti][r]), math.Float64bits(got.Dist[ti][r])
			if w != g {
				t.Fatalf("test %d rank %d: bits %#x != %#x", ti, r, g, w)
			}
		}
	}
	// Every shard reports every test point: the header's test-offset word
	// must be 0.
	enc[12] = 1
	if _, err := ReadShardReport(bytes.NewReader(enc)); err == nil {
		t.Fatal("decoded a report with a nonzero test offset")
	}

	// Pinned encoding of a two-test-point report, one hex string per field:
	// header (magic "KSRP", version 1, globalN, test offset 0, ntest), then
	// per test point its entry count, packed uint32 indices and float64
	// distances, all little-endian.
	pin := &ShardReport{
		GlobalN: 5,
		Idx:     [][]uint32{{PackIndex(3, true), PackIndex(0, false)}, {PackIndex(4, false)}},
		Dist:    [][]float64{{0.25, 1}, {2}},
	}
	want := strings.Join([]string{
		"5052534b", "01000000", "05000000", "00000000", "02000000",
		"02000000", "03000080", "00000000", "000000000000d03f", "000000000000f03f",
		"01000000", "04000000", "0000000000000040",
	}, "")
	var pinBuf bytes.Buffer
	if _, err := pin.WriteTo(&pinBuf); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(pinBuf.Bytes()); got != want {
		t.Fatalf("report encoding:\n got %s\nwant %s", got, want)
	}
	raw, _ := hex.DecodeString(want)
	dec, err := ReadShardReport(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if dec.GlobalN != pin.GlobalN || !reflect.DeepEqual(dec.Idx, pin.Idx) || !reflect.DeepEqual(dec.Dist, pin.Dist) {
		t.Fatalf("decoded pin %+v, want %+v", dec, pin)
	}
}

func TestReadShardReportRejectsOutOfRangeIndex(t *testing.T) {
	sr := &ShardReport{GlobalN: 5, Idx: [][]uint32{{PackIndex(5, false)}}, Dist: [][]float64{{1}}}
	var buf bytes.Buffer
	if _, err := sr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShardReport(&buf); err == nil {
		t.Fatal("decoded a report whose index falls outside GlobalN")
	}
}

func TestReadShardReportTruncated(t *testing.T) {
	sr := sampleReport()
	var buf bytes.Buffer
	if _, err := sr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := ReadShardReport(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("decoded a report truncated to %d of %d bytes", cut, len(full))
		}
	}
}

// FuzzShardReportCodec pins the decoder's safety contract: arbitrary bytes
// never panic, and whatever decodes successfully re-encodes to the same
// bytes it was decoded from.
func FuzzShardReportCodec(f *testing.F) {
	var seed bytes.Buffer
	sampleReport().WriteTo(&seed)
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("KSRP"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := ReadShardReport(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := sr.WriteTo(&out); err != nil {
			t.Fatalf("re-encode of decoded report failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("re-encode differs from decoded prefix")
		}
		if rt, err := ReadShardReport(&out); err != nil || rt.GlobalN != sr.GlobalN {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

// FuzzShardRequestJSON pins the same contract for the JSON side: the
// worker's strict decode of arbitrary bytes never panics, and a decoded
// request marshals back to an equivalent value.
func FuzzShardRequestJSON(f *testing.F) {
	seed, _ := json.Marshal(wire.ShardRequest{
		TrainRef: "00112233445566778899aabbccddeeff"[:16], TestRef: "ffeeddccbbaa99887766554433221100"[:16],
		K: 5, Metric: "l2", Precision: "float64",
		Limit: 10, GlobalOffset: 100, GlobalN: 1000,
		BatchSize: 64,
	})
	f.Add(seed)
	f.Add([]byte("{}"))
	f.Add([]byte(`{"k":-1}`))
	f.Add([]byte(`{"unknown":true}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var req wire.ShardRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		var rt wire.ShardRequest
		if err := json.Unmarshal(out, &rt); err != nil {
			t.Fatalf("re-unmarshal: %v", err)
		}
		if rt != req {
			t.Fatalf("round trip changed request: %+v vs %+v", rt, req)
		}
	})
}
