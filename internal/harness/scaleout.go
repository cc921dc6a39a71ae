package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/core"
)

// ScaleBaseline is the schema of BENCH_scaleout.json: the scaling study
// the sparse page directory, unbounded copysets and compressed diffs
// exist for. Each point runs the synthetic scaleout application at one
// cluster size, with and without diff compression, and records the
// per-primitive latency curves (fault/lock/barrier wait), the network
// traffic per message class, and the host-side heap the run needed —
// the number that must stay working-set-proportional as the address
// space crosses a million pages.
type ScaleBaseline struct {
	GoVersion     string       `json:"go_version"`
	Size          string       `json:"size"`
	EngineWorkers int          `json:"engine_workers"`
	Points        []ScalePoint `json:"points"`
}

// ScalePoint is one (cluster size, compression) cell of the study.
type ScalePoint struct {
	Nodes    int  `json:"nodes"`
	Threads  int  `json:"threads"`
	Compress bool `json:"compress_diffs"`

	// Pages is the allocated shared address space in pages; the heap
	// figure below must not scale with it.
	Pages int64 `json:"pages"`

	// Virtual-time results: total wall and the Figure 1 breakdown
	// summed over nodes (nanoseconds of virtual time).
	WallNs        int64 `json:"wall_ns"`
	UserNs        int64 `json:"user_ns"`
	FaultWaitNs   int64 `json:"fault_wait_ns"`
	LockWaitNs    int64 `json:"lock_wait_ns"`
	BarrierWaitNs int64 `json:"barrier_wait_ns"`

	// Per-primitive action counts.
	RemoteFaults int64 `json:"remote_faults"`
	RemoteLocks  int64 `json:"remote_locks"`
	DiffsCreated int64 `json:"diffs_created"`
	DiffsUsed    int64 `json:"diffs_used"`

	// Network traffic per Table 2 class.
	LockMsgs     int64 `json:"lock_msgs"`
	BarrierMsgs  int64 `json:"barrier_msgs"`
	DiffMsgs     int64 `json:"diff_msgs"`
	LockBytes    int64 `json:"lock_bytes"`
	BarrierBytes int64 `json:"barrier_bytes"`
	DiffBytes    int64 `json:"diff_bytes"`

	// Host-side cost of simulating the point.
	HeapMB      float64 `json:"heap_mb"`
	HostSeconds float64 `json:"host_seconds"`

	Checksum float64 `json:"checksum"`
}

// ReadScaleBaseline parses a BENCH_scaleout.json payload.
func ReadScaleBaseline(data []byte) (*ScaleBaseline, error) {
	var b ScaleBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, err
	}
	return &b, nil
}

// WriteScaleBaseline emits the study as indented JSON.
func WriteScaleBaseline(w io.Writer, b *ScaleBaseline) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// RunScaleStudy runs the scaleout application across the given node
// counts (threadsPerNode threads each), once per compression setting,
// with engineWorkers DES engine workers (≥ 1). Points run sequentially — heap measurement
// needs the run to own the process — in deterministic order.
func RunScaleStudy(nodeCounts []int, threadsPerNode int, size apps.Size,
	compress []bool, engineWorkers int, progress io.Writer) (*ScaleBaseline, error) {
	b := &ScaleBaseline{
		GoVersion:     runtime.Version(),
		Size:          scaleSizeName(size),
		EngineWorkers: engineWorkers,
	}
	sink := newProgressSink(progress)
	defer sink.Close()
	for _, nodes := range nodeCounts {
		for _, comp := range compress {
			sink.Printf("scaleout %dx%d compress=%v...\n", nodes, threadsPerNode, comp)
			pt, err := runScalePoint(nodes, threadsPerNode, size, comp, engineWorkers)
			if err != nil {
				return nil, fmt.Errorf("harness: scaleout %dx%d compress=%v: %w",
					nodes, threadsPerNode, comp, err)
			}
			b.Points = append(b.Points, pt)
		}
	}
	return b, nil
}

// runScalePoint runs one cell. Unlike apps.RunConfigFull it builds the
// cluster here, so it can read the allocated address-space size and
// bracket the run with heap measurements.
func runScalePoint(nodes, threads int, size apps.Size, compress bool, engineWorkers int) (ScalePoint, error) {
	app, err := apps.New("scaleout", size)
	if err != nil {
		return ScalePoint{}, err
	}
	cfg := cvm.DefaultConfig(nodes, threads)
	cfg.CompressDiffs = compress
	cfg.EngineWorkers = engineWorkers

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()

	cluster, err := cvm.New(cfg)
	if err != nil {
		return ScalePoint{}, err
	}
	if err := app.Setup(cluster); err != nil {
		return ScalePoint{}, err
	}
	stats, err := cluster.Run(app.Main)
	if err != nil {
		return ScalePoint{}, err
	}

	// Heap while the cluster (page tables, diffs, intervals) is still
	// live: the delta over the pre-run baseline is what the simulated
	// cluster state costs the host.
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	host := time.Since(t0)

	if err := app.Check(); err != nil {
		return ScalePoint{}, err
	}
	var pages int64
	for _, seg := range cluster.System().Segments() {
		pages += int64((seg.Size + cfg.PageSize - 1) / cfg.PageSize)
	}
	heap := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	if heap < 0 {
		heap = 0
	}
	return ScalePoint{
		Nodes:         nodes,
		Threads:       threads,
		Compress:      compress,
		Pages:         pages,
		WallNs:        int64(stats.Wall),
		UserNs:        int64(stats.Total.UserTime),
		FaultWaitNs:   int64(stats.Total.FaultWait),
		LockWaitNs:    int64(stats.Total.LockWait),
		BarrierWaitNs: int64(stats.Total.BarrierWait),
		RemoteFaults:  stats.Total.RemoteFaults,
		RemoteLocks:   stats.Total.RemoteLocks,
		DiffsCreated:  stats.Total.DiffsCreated,
		DiffsUsed:     stats.Total.DiffsUsed,
		LockMsgs:      stats.Net.Msgs[core.ClassLock],
		BarrierMsgs:   stats.Net.Msgs[core.ClassBarrier],
		DiffMsgs:      stats.Net.Msgs[core.ClassDiff],
		LockBytes:     stats.Net.Bytes[core.ClassLock],
		BarrierBytes:  stats.Net.Bytes[core.ClassBarrier],
		DiffBytes:     stats.Net.Bytes[core.ClassDiff],
		HeapMB:        heap / (1 << 20),
		HostSeconds:   host.Seconds(),
		Checksum:      app.Checksum(),
	}, nil
}

func scaleSizeName(s apps.Size) string {
	switch s {
	case apps.SizeTest:
		return "test"
	case apps.SizePaper:
		return "paper"
	default:
		return "small"
	}
}

// ScaleStudyNodes is the study's default node-count sweep.
var ScaleStudyNodes = []int{8, 64, 256, 1024}

// WriteScaleStudy renders the study as a text table.
func WriteScaleStudy(w io.Writer, b *ScaleBaseline) {
	fmt.Fprintf(w, "Scaling study (size %s, engine workers %d)\n", b.Size, b.EngineWorkers)
	fmt.Fprintf(w, "%6s %3s %5s %9s %11s %11s %11s %11s %9s %8s %8s\n",
		"nodes", "thr", "comp", "pages", "wall(ms)", "fault(ms)", "lock(ms)", "barrier(ms)",
		"diffKB", "heapMB", "host(s)")
	for _, p := range b.Points {
		comp := "off"
		if p.Compress {
			comp = "on"
		}
		fmt.Fprintf(w, "%6d %3d %5s %9d %11.2f %11.2f %11.2f %11.2f %9.1f %8.1f %8.2f\n",
			p.Nodes, p.Threads, comp, p.Pages,
			float64(p.WallNs)/1e6, float64(p.FaultWaitNs)/1e6,
			float64(p.LockWaitNs)/1e6, float64(p.BarrierWaitNs)/1e6,
			float64(p.DiffBytes)/1024, p.HeapMB, p.HostSeconds)
	}
}
