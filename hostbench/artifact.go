package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// artifact is the traced run's record: the environment, the per-layer
// metrics, the CPU table by bucket and every kept span.
type artifact struct {
	Env      envStamp          `json:"env"`
	Metrics  map[string]metric `json:"metrics"`
	CPU      []cpuRow          `json:"cpu"`
	Profiled int               `json:"profiled_executions"`
	Spans    []span            `json:"spans"`
	// SpansSeen counts every span, kept or not; see spanLog.
	SpansSeen int64 `json:"spans_seen"`
}

type cpuRow struct {
	Bucket string  `json:"bucket"`
	CPUs   float64 `json:"cpu_s"`
	Share  float64 `json:"share"`
}

func writeArtifact(path string, env envStamp, r *result) error {
	a := artifact{Env: env, Metrics: r.layers()}
	profiled := r.ok(kindProfile)
	a.Profiled = len(profiled)
	tot := cpuTotals(profiled)
	var all int64
	for _, ns := range tot {
		all += ns
	}
	for _, b := range cpuBuckets {
		row := cpuRow{Bucket: b, CPUs: float64(tot[b]) / 1e9}
		if all > 0 {
			row.Share = float64(tot[b]) / float64(all)
		}
		a.CPU = append(a.CPU, row)
	}
	for _, ex := range r.ok(kindSpans) {
		a.Spans = append(a.Spans, ex.spans...)
		a.SpansSeen += ex.spansSeen
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace artifact: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace artifact: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(a); err != nil {
		f.Close()
		return fmt.Errorf("trace artifact: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace artifact: %w", err)
	}
	return nil
}
