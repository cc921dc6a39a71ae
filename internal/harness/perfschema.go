package harness

import "encoding/json"

// PerfBaseline is the schema of BENCH_harness.json: an end-to-end
// sequential-vs-parallel harness comparison plus hot-path
// microbenchmarks. cvm-bench's perf experiment writes it; cvm-metrics
// compare reads it to gate allocation and throughput regressions.
type PerfBaseline struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Size       string `json:"size"`

	Grid PerfGrid `json:"grid"`

	// Engine is the intra-run parallelism section: the same small grid
	// at 1 engine worker and at Engine.Workers workers, with byte-identical results required.
	Engine PerfEngine `json:"engine"`

	// Phases are the perf experiment's per-phase host wall times, each
	// tagged with the concurrency that produced it (grid-pool workers
	// for the grid phases, engine workers for the engine phases).
	Phases []PerfPhase `json:"phases,omitempty"`

	Micro []MicroResult `json:"micro"`

	// DiffWire records the compressed diff encoding's wire size against
	// the raw run encoding on the fixed wire patterns, so the compression
	// win is gated (cvm-metrics enforces absolute ratio caps), not
	// anecdotal.
	DiffWire []DiffWireResult `json:"diff_wire,omitempty"`
}

// DiffWireResult is one wire pattern's encoded-vs-raw size.
type DiffWireResult struct {
	Pattern      string  `json:"pattern"`
	RawBytes     int     `json:"raw_bytes"`
	EncodedBytes int     `json:"encoded_bytes"`
	Ratio        float64 `json:"ratio"`
}

// PerfEngine is the engine-parallelism portion of a perf
// baseline. Speedup compares one engine worker against Workers engine
// workers on the same host; on a single-core host it records the
// window-coordination overhead rather than a speedup (see DESIGN §6).
type PerfEngine struct {
	Workers    int     `json:"workers"`
	Cores      int     `json:"cores"`
	SeqSeconds float64 `json:"seq_seconds"`
	ParSeconds float64 `json:"par_seconds"`
	Speedup    float64 `json:"speedup"`
	Identical  bool    `json:"results_identical"`
}

// PerfPhase is one perf-experiment phase's host wall time.
type PerfPhase struct {
	Name    string  `json:"name"`
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
}

// PerfGrid is the grid-throughput portion of a perf baseline.
type PerfGrid struct {
	Cells       int     `json:"cells"`
	Workers     int     `json:"workers"`
	SeqSeconds  float64 `json:"seq_seconds"`
	ParSeconds  float64 `json:"par_seconds"`
	SeqCellsSec float64 `json:"seq_cells_per_sec"`
	ParCellsSec float64 `json:"par_cells_per_sec"`
	Speedup     float64 `json:"speedup"`
	Identical   bool    `json:"results_identical"`
}

// MicroResult is one microbenchmark's time and allocation cost.
type MicroResult struct {
	Name     string  `json:"name"`
	NsOp     float64 `json:"ns_op"`
	AllocsOp int64   `json:"allocs_op"`
}

// ReadPerfBaseline parses a BENCH_harness.json payload.
func ReadPerfBaseline(data []byte) (*PerfBaseline, error) {
	var b PerfBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, err
	}
	return &b, nil
}
