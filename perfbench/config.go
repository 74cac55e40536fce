package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Config holds the workload constants of workloads.json: sizes, the op mix
// and the arrival rate. Nothing is calibrated at run time, so a parent
// commit and its change always see the same load.
type Config struct {
	K      int `json:"k"`
	Engine struct {
		N            int     `json:"n"`
		Batch        int     `json:"batch"`
		TruncatedEps float64 `json:"truncated_eps"`
		Setups       int     `json:"setups"`
	} `json:"engine_batch"`
	Serve struct {
		N           int     `json:"n"`
		TestPoints  int     `json:"test_points"`
		Connections int     `json:"connections"`
		ExactShare  float64 `json:"exact_share"`
		AutoShare   float64 `json:"auto_share"`
		AutoEps     float64 `json:"auto_eps"`
		Setups      int     `json:"setups"`
	} `json:"serve_mixed"`
	Delta struct {
		N          int     `json:"n"`
		AppendRows int     `json:"append_rows"`
		TestPoints int     `json:"test_points"`
		RatePerS   float64 `json:"rate_per_s"`
		Setups     int     `json:"setups"`
	} `json:"delta_stream"`
	ANN struct {
		N         int     `json:"n"`
		Batch     int     `json:"batch"`
		Eps       float64 `json:"eps"`
		Delta     float64 `json:"delta"`
		IndexSeed uint64  `json:"index_seed"`
		Setups    int     `json:"setups"`
	} `json:"ann_index"`
}

func loadConfig(path string) (Config, error) {
	var c Config
	b, err := os.ReadFile(path)
	if err != nil {
		return c, fmt.Errorf("read workload constants: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return c, fmt.Errorf("decode %s: %w", path, err)
	}
	if c.K < 1 || c.Engine.Setups < 1 || c.Serve.Setups < 1 || c.Delta.Setups < 1 || c.ANN.Setups < 1 ||
		c.Serve.Connections < 1 || c.Delta.RatePerS <= 0 {
		return c, fmt.Errorf("%s: k, setups, connections and rate_per_s must be positive", path)
	}
	return c, nil
}
