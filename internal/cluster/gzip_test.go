package cluster_test

import (
	"context"
	"testing"

	"knnshapley"
	"knnshapley/internal/cluster"
)

// TestShardReportGzipOnWire pins the compressed gather: with the default
// config the report transfer is gzip-encoded (strictly fewer bytes on the
// wire than the raw encoding), with DisableReportGzip it is byte-exact raw —
// and the merged values are bit-identical either way.
func TestShardReportGzipOnWire(t *testing.T) {
	train := knnshapley.SynthIris(151, 3)
	test := knnshapley.SynthIris(37, 4)
	v, err := knnshapley.New(train, knnshapley.WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	local, err := v.Exact(context.Background(), test)
	if err != nil {
		t.Fatal(err)
	}

	tw := newTestWorker(t, nil)
	run := func(disable bool) int64 {
		t.Helper()
		cfg := testConfig([]string{tw.srv.URL})
		cfg.DisableReportGzip = disable
		c := cluster.New(cfg)
		defer c.Close()
		rep, err := c.Evaluate(context.Background(), cluster.Request{Train: train, Test: test, Method: "exact", K: 5})
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "gzip wire", rep.Values, local.Values)
		return c.BytesOnWire()
	}

	rawBytes := run(true)
	gzBytes := run(false)
	// One shard, full report: the raw transfer is exactly the encoded size.
	wantRaw := (&cluster.ShardReport{Idx: make([][]uint32, test.N())}).EncodedBytes() + int64(test.N())*int64(train.N())*12
	if rawBytes != wantRaw {
		t.Fatalf("raw transfer %d bytes, want %d", rawBytes, wantRaw)
	}
	if gzBytes >= rawBytes {
		t.Fatalf("gzip transfer %d bytes, raw %d — no compression happened", gzBytes, rawBytes)
	}
	t.Logf("shard report: %d bytes raw, %d gzip (%.1f%%)", rawBytes, gzBytes, 100*float64(gzBytes)/float64(rawBytes))
}
