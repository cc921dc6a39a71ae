package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/core"
	"cvm/internal/harness"
	"cvm/internal/memsim"
	"cvm/internal/netsim"
	"cvm/internal/sim"
)

// runPerf benchmarks the harness itself: one grid run sequentially and one
// at the requested parallelism, checked for identical results, plus the
// MakeDiff/Apply and memsim microbenchmarks, emitted as JSON in the
// harness.PerfBaseline schema.
func runPerf(out io.Writer, size apps.Size, workers int, jsonPath string, progress io.Writer) error {
	var b harness.PerfBaseline
	b.GoVersion = runtime.Version()
	b.GOMAXPROCS = runtime.GOMAXPROCS(0)
	b.Size = sizeName(size)
	if workers <= 0 {
		workers = harness.DefaultParallelism()
	}

	// A representative grid: the Figure 1 / Tables 2-3 shape but at 4
	// nodes only, so the perf experiment stays shorter than -experiment all
	// while still averaging over every application.
	names := harness.AppOrder
	shapes := harness.GridShapes([]int{4}, harness.ThreadLevels)

	fmt.Fprintf(out, "perf: grid %d apps x %d shapes, sequential...\n", len(names), len(shapes))
	t0 := time.Now()
	seq, err := harness.RunGridParallel(names, size, shapes, progress, 1)
	if err != nil {
		return err
	}
	seqDur := time.Since(t0)
	b.Phases = append(b.Phases, harness.PerfPhase{Name: "grid-sequential", Workers: 1, Seconds: seqDur.Seconds()})

	fmt.Fprintf(out, "perf: same grid with %d workers...\n", workers)
	t0 = time.Now()
	par, err := harness.RunGridParallel(names, size, shapes, progress, workers)
	if err != nil {
		return err
	}
	parDur := time.Since(t0)
	b.Phases = append(b.Phases, harness.PerfPhase{Name: "grid-parallel", Workers: workers, Seconds: parDur.Seconds()})

	b.Grid.Cells = len(seq)
	b.Grid.Workers = workers
	b.Grid.SeqSeconds = seqDur.Seconds()
	b.Grid.ParSeconds = parDur.Seconds()
	b.Grid.SeqCellsSec = float64(len(seq)) / seqDur.Seconds()
	b.Grid.ParCellsSec = float64(len(par)) / parDur.Seconds()
	b.Grid.Speedup = seqDur.Seconds() / parDur.Seconds()
	b.Grid.Identical = seq.Equal(par)
	if !b.Grid.Identical {
		return fmt.Errorf("cvm-bench: parallel grid results differ from sequential (determinism violation)")
	}

	// Intra-run parallelism: the same small grid at one engine worker
	// vs engineWorkers workers. Unlike the
	// grid pool (independent simulations per core), this parallelizes
	// inside each simulation, so it is gated on byte-identical Results.
	const engineWorkers = 4
	engineNames := []string{"sor", "waternsq"}
	engineShapes := harness.GridShapes([]int{4}, []int{4})
	engineMut := func(w int) func(harness.Key, *cvm.Config) {
		return func(_ harness.Key, cfg *cvm.Config) { cfg.EngineWorkers = w }
	}
	fmt.Fprintf(out, "perf: engine grid %d apps, 1 engine worker...\n", len(engineNames))
	t0 = time.Now()
	eseq, err := harness.RunGridConfig(engineNames, size, engineShapes, engineMut(1), progress, 1)
	if err != nil {
		return err
	}
	eseqDur := time.Since(t0)
	b.Phases = append(b.Phases, harness.PerfPhase{Name: "engine-sequential", Workers: 1, Seconds: eseqDur.Seconds()})
	fmt.Fprintf(out, "perf: engine grid with %d engine workers...\n", engineWorkers)
	t0 = time.Now()
	epar, err := harness.RunGridConfig(engineNames, size, engineShapes, engineMut(engineWorkers), progress, 1)
	if err != nil {
		return err
	}
	eparDur := time.Since(t0)
	b.Phases = append(b.Phases, harness.PerfPhase{Name: "engine-parallel", Workers: engineWorkers, Seconds: eparDur.Seconds()})

	b.Engine.Workers = engineWorkers
	b.Engine.Cores = runtime.NumCPU()
	b.Engine.SeqSeconds = eseqDur.Seconds()
	b.Engine.ParSeconds = eparDur.Seconds()
	b.Engine.Speedup = eseqDur.Seconds() / eparDur.Seconds()
	b.Engine.Identical = eseq.Equal(epar)
	if !b.Engine.Identical {
		return fmt.Errorf("cvm-bench: engine results differ between 1 and %d workers (determinism violation)", engineWorkers)
	}

	b.Micro = append(b.Micro,
		micro("MakeDiff/sparse", benchMakeDiff(sparsePage)),
		micro("MakeDiff/dense", benchMakeDiff(densePage)),
		micro("MakeDiff/clean", benchMakeDiff(cleanPage)),
		micro("DiffApply", benchDiffApply()),
		micro("MemsimSweep", benchMemsimSweep()),
		micro("MemsimRange", benchMemsimRange()),
		micro("MemsimRandom", benchMemsimRandom()),
		micro("ReadRange/scalar", benchSpanRead(false)),
		micro("ReadRange/span", benchSpanRead(true)),
		micro("WriteRange/scalar", benchSpanWrite(false)),
		micro("WriteRange/span", benchSpanWrite(true)),
		micro("SpanSweep/scalar", benchSpanSweep(false)),
		micro("SpanSweep/span", benchSpanSweep(true)),
		micro("SpanSORRow/scalar", benchSpanSORRow(false)),
		micro("SpanSORRow/span", benchSpanSORRow(true)),
		micro("Engine/EventHeap", benchEngineEventHeap()),
		micro("Engine/SpawnWake", benchEngineSpawnWake()),
		micro("DiffEncode/sparse", benchDiffEncode("sparse")),
		micro("DiffEncode/dense", benchDiffEncode("dense")),
		micro("DiffDecode/sparse", benchDiffDecode("sparse")),
	)

	// Encoded-vs-raw wire sizes on the fixed patterns; cvm-metrics
	// compare enforces absolute ratio caps on these.
	for _, pattern := range core.WirePatterns() {
		twin, cur := core.WirePatternPages(pattern, perfPageSize)
		runs := core.MakeDiff(core.Runs{}, twin, cur)
		raw := 8*len(runs.Spans) + len(runs.Data)
		enc := core.EncodedRunsSize(runs)
		b.DiffWire = append(b.DiffWire, harness.DiffWireResult{
			Pattern: pattern, RawBytes: raw, EncodedBytes: enc,
			Ratio: float64(enc) / float64(raw),
		})
	}

	f, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&b); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	fmt.Fprintf(out, "perf: %d cells: sequential %.2fs (%.2f cells/s), %d workers %.2fs (%.2f cells/s), speedup %.2fx\n",
		b.Grid.Cells, b.Grid.SeqSeconds, b.Grid.SeqCellsSec,
		b.Grid.Workers, b.Grid.ParSeconds, b.Grid.ParCellsSec, b.Grid.Speedup)
	fmt.Fprintf(out, "perf: engine grid: 1 worker %.2fs, %d workers %.2fs, speedup %.2fx on %d cores, identical=%v\n",
		b.Engine.SeqSeconds, b.Engine.Workers, b.Engine.ParSeconds,
		b.Engine.Speedup, b.Engine.Cores, b.Engine.Identical)
	for _, m := range b.Micro {
		fmt.Fprintf(out, "perf: %-18s %10.1f ns/op  %d allocs/op\n", m.Name, m.NsOp, m.AllocsOp)
	}
	for _, dw := range b.DiffWire {
		fmt.Fprintf(out, "perf: diff-wire %-8s raw %5d encoded %5d ratio %.3f\n",
			dw.Pattern, dw.RawBytes, dw.EncodedBytes, dw.Ratio)
	}
	fmt.Fprintf(out, "perf: baseline written to %s\n", jsonPath)
	return nil
}

func micro(name string, r testing.BenchmarkResult) harness.MicroResult {
	return harness.MicroResult{Name: name, NsOp: float64(r.T.Nanoseconds()) / float64(r.N), AllocsOp: r.AllocsPerOp()}
}

func sizeName(s apps.Size) string {
	switch s {
	case apps.SizeTest:
		return "test"
	case apps.SizePaper:
		return "paper"
	default:
		return "small"
	}
}

const perfPageSize = 8 << 10

// sparsePage scatters a few short modified ranges across the page.
func sparsePage() (twin, cur []byte) {
	twin = make([]byte, perfPageSize)
	cur = make([]byte, perfPageSize)
	for i := 0; i < perfPageSize; i += 512 {
		cur[i] = byte(i>>9) + 1
	}
	return twin, cur
}

// densePage modifies nearly every byte.
func densePage() (twin, cur []byte) {
	twin = make([]byte, perfPageSize)
	cur = make([]byte, perfPageSize)
	for i := range cur {
		cur[i] = byte(i) | 1
	}
	return twin, cur
}

// cleanPage has no modifications (the twin-comparison common case at
// barrier-heavy apps: most closed pages changed only a small region).
func cleanPage() (twin, cur []byte) {
	twin = make([]byte, perfPageSize)
	cur = make([]byte, perfPageSize)
	return twin, cur
}

// benchMakeDiff measures what the simulator pays per diff: a scan into
// reused scratch buffers plus the exact-size clone the diff retains.
func benchMakeDiff(mk func() (twin, cur []byte)) testing.BenchmarkResult {
	twin, cur := mk()
	var scratch, kept core.Runs
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scratch = core.MakeDiff(scratch, twin, cur)
			kept = scratch.Clone()
		}
		_ = kept
	})
}

func benchDiffApply() testing.BenchmarkResult {
	twin, cur := sparsePage()
	d := &core.Diff{Runs: core.MakeDiff(core.Runs{}, twin, cur)}
	dst := make([]byte, perfPageSize)
	tw := make([]byte, perfPageSize)
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.Apply(dst, tw)
		}
	})
}

func benchDiffEncode(pattern string) testing.BenchmarkResult {
	twin, cur := core.WirePatternPages(pattern, perfPageSize)
	runs := core.MakeDiff(core.Runs{}, twin, cur)
	var dst []byte
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = core.EncodeRuns(dst[:0], runs)
		}
	})
}

func benchDiffDecode(pattern string) testing.BenchmarkResult {
	twin, cur := core.WirePatternPages(pattern, perfPageSize)
	enc := core.EncodeRuns(nil, core.MakeDiff(core.Runs{}, twin, cur))
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.DecodeRuns(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchMemsimSweep() testing.BenchmarkResult {
	sys := memsim.NewSystem(memsim.SP2Params())
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys.Access(uint64(i%(1<<20)) * 8)
		}
	})
}

// benchMemsimRange is one 8 KB AccessRange, the charge of a twin, a
// diff creation or a whole-page install, cycling over 16 pages.
func benchMemsimRange() testing.BenchmarkResult {
	sys := memsim.NewSystem(memsim.SP2Params())
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys.AccessRange(uint64(i%16)<<13, 8<<10)
		}
	})
}

// benchMemsimRandom is one Access at a pseudo-random address in 1 MB:
// no memo applies, so every access walks the tag arrays and most miss.
func benchMemsimRandom() testing.BenchmarkResult {
	sys := memsim.NewSystem(memsim.SP2Params())
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x := uint64(i)*6364136223846793005 + 1442695040888963407
			sys.Access((x >> 11) % (1 << 20))
		}
	})
}

// Span-accessor micros: the same simulated sweep in elementwise and
// page-span form, so the baseline records the access-check amortization
// factor the bulk accessors buy (same charges, fewer host instructions).
const (
	spanBenchRows = 64
	spanBenchCols = 1024 // two 4 KiB pages per row
)

func spanBenchMatrix(b *testing.B) (*cvm.Cluster, cvm.F64Matrix) {
	b.Helper()
	cluster, err := cvm.New(cvm.DefaultConfig(1, 1))
	if err != nil {
		b.Fatal(err)
	}
	return cluster, cluster.MustAllocF64Matrix("bench.m", spanBenchRows, spanBenchCols, false)
}

// benchSpanRead is a pure read sweep over the whole matrix.
func benchSpanRead(span bool) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cluster, m := spanBenchMatrix(b)
			if _, err := cluster.Run(func(w cvm.Worker) {
				sum := 0.0
				if !span {
					for r := 0; r < spanBenchRows; r++ {
						for j := 0; j < spanBenchCols; j++ {
							sum += m.Get(w, r, j)
						}
					}
					return
				}
				row := make([]float64, spanBenchCols)
				for r := 0; r < spanBenchRows; r++ {
					m.Row(w, r, row)
					for _, v := range row {
						sum += v
					}
				}
				_ = sum
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchSpanWrite is a pure write sweep over the whole matrix.
func benchSpanWrite(span bool) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cluster, m := spanBenchMatrix(b)
			if _, err := cluster.Run(func(w cvm.Worker) {
				if !span {
					for r := 0; r < spanBenchRows; r++ {
						for j := 0; j < spanBenchCols; j++ {
							m.Set(w, r, j, float64(r+j))
						}
					}
					return
				}
				row := make([]float64, spanBenchCols)
				for r := 0; r < spanBenchRows; r++ {
					for j := range row {
						row[j] = float64(r + j)
					}
					m.SetRow(w, r, row)
				}
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchSpanSweep is a read-modify-write sweep over the whole matrix.
func benchSpanSweep(span bool) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cluster, m := spanBenchMatrix(b)
			if _, err := cluster.Run(func(w cvm.Worker) {
				if !span {
					for r := 0; r < spanBenchRows; r++ {
						for j := 0; j < spanBenchCols; j++ {
							m.Set(w, r, j, m.Get(w, r, j)+1)
						}
					}
					return
				}
				row := make([]float64, spanBenchCols)
				for r := 0; r < spanBenchRows; r++ {
					m.Row(w, r, row)
					for j := range row {
						row[j]++
					}
					m.SetRow(w, r, row)
				}
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchSpanSORRow is the SOR five-point red-black row kernel.
func benchSpanSORRow(span bool) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cluster, m := spanBenchMatrix(b)
			if _, err := cluster.Run(func(w cvm.Worker) {
				if !span {
					for r := 1; r < spanBenchRows-1; r++ {
						for j := 1 + r%2; j < spanBenchCols-1; j += 2 {
							v := 0.25 * (m.Get(w, r-1, j) + m.Get(w, r+1, j) +
								m.Get(w, r, j-1) + m.Get(w, r, j+1))
							m.Set(w, r, j, v)
						}
					}
					return
				}
				top := make([]float64, spanBenchCols)
				cur := make([]float64, spanBenchCols)
				bot := make([]float64, spanBenchCols)
				m.Row(w, 0, top)
				m.Row(w, 1, cur)
				for r := 1; r < spanBenchRows-1; r++ {
					m.Row(w, r+1, bot)
					for j := 1 + r%2; j < spanBenchCols-1; j += 2 {
						cur[j] = 0.25 * (top[j] + bot[j] + cur[j-1] + cur[j+1])
					}
					m.SetRow(w, r, cur)
					top, cur, bot = cur, bot, top
				}
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// engineLookahead is the window width of the engine kernels: the
// default interconnect's one-way latency lower bound, as in a cluster.
var engineLookahead = netsim.DefaultParams().Lookahead()

// benchEngineEventHeap measures the engine's event heap through the
// public API: one task pushes a standing population of timed events that
// the run loop pops in time order — the delivery pattern of netsim.
func benchEngineEventHeap() testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := sim.NewEngine(1, engineLookahead)
			p := eng.AddProc(0)
			eng.Spawn(p, "pusher", func(t *sim.Task) {
				nop := func() {}
				x := uint64(1)
				for j := 0; j < 512; j++ {
					x = x*6364136223846793005 + 1442695040888963407
					t.Schedule(t.Now()+sim.Time(x>>44), nop)
				}
			})
			if err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchEngineSpawnWake measures task dispatch and wake: two tasks on one
// proc ping-pong through Block/Wake, the pattern of a thread blocking on
// a remote fault and being woken by the reply handler.
func benchEngineSpawnWake() testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := sim.NewEngine(1, engineLookahead)
			p := eng.AddProc(0)
			const rounds = 256
			var a, z *sim.Task
			// a blocks first; z and a then alternate wake-then-block, so
			// every wake targets a task that is already blocked.
			a = eng.Spawn(p, "a", func(t *sim.Task) {
				for j := 0; j < rounds; j++ {
					t.Block(0)
					eng.WakeAt(z, t.Now())
				}
			})
			z = eng.Spawn(p, "z", func(t *sim.Task) {
				for j := 0; j < rounds; j++ {
					eng.WakeAt(a, t.Now())
					t.Block(0)
				}
			})
			if err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
