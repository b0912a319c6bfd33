// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, wrapping the runners in internal/experiment at a reduced
// scale. Custom metrics carry the quantities the paper plots — Mops/s of
// virtual time, reflush ratios, peak MiB, recovery milliseconds — while
// ns/op reflects the wall-clock cost of regenerating the figure.
//
// Regenerate any figure at full scale with:
//
//	go run ./cmd/nvbench -exp fig9 -threads 1,2,4,8,16
package nvalloc

import (
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/experiment"
	"nvalloc/internal/fptree"
	"nvalloc/internal/pmem"
	"nvalloc/internal/workload"
)

// benchCfg keeps figure regeneration fast enough for `go test -bench=.`.
// Workers: 0 runs experiment cells on the parallel engine (GOMAXPROCS
// workers); virtual-time metrics are identical to a serial run.
var benchCfg = experiment.Config{Threads: []int{1, 2}, Scale: 0.02, DeviceBytes: 256 << 20}

// lastCell parses the bottom-right numeric cell of a table (the headline
// configuration's result).
func lastCell(b *testing.B, t *experiment.Table) float64 {
	b.Helper()
	row := t.Rows[len(t.Rows)-1]
	v, err := strconv.ParseFloat(strings.TrimSuffix(row[len(row)-1], "%"), 64)
	if err != nil {
		b.Fatalf("cell %q: %v", row[len(row)-1], err)
	}
	return v
}

func runExperiment(b *testing.B, id string, metric string, pick func([]*experiment.Table) float64) {
	b.Helper()
	var v float64
	for i := 0; i < b.N; i++ {
		tables := experiment.Experiments[id](benchCfg)
		v = pick(tables)
	}
	b.ReportMetric(v, metric)
}

// ---- Table 1 / Table 2 ----------------------------------------------------

func BenchmarkTable1FragbenchW4(b *testing.B) {
	// Table 1 defines the Fragbench workloads; this regenerates W4's
	// peak-over-live ratio.
	for i := 0; i < b.N; i++ {
		h, err := experiment.OpenHeap("NVAlloc-LOG", benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		r := workload.Fragbench(h, workload.FragSpecs[3], workload.FragConfig{LiveBytes: 8 << 20})
		b.ReportMetric(float64(r.PeakBytes)/float64(r.LiveBytes), "peak/live")
	}
}

func BenchmarkTable2VariantMatrix(b *testing.B) {
	runExperiment(b, "table2", "rows", func(ts []*experiment.Table) float64 {
		return float64(len(ts[0].Rows))
	})
}

// ---- Figures ---------------------------------------------------------------

func BenchmarkFig01aReflushRatio(b *testing.B) {
	runExperiment(b, "fig1a", "reflush_pct_last", func(ts []*experiment.Table) float64 {
		return lastCell(b, ts[0])
	})
}

func BenchmarkFig01bPeakMemory(b *testing.B) {
	runExperiment(b, "fig1b", "peak_mib_last", func(ts []*experiment.Table) float64 {
		return lastCell(b, ts[0])
	})
}

func BenchmarkFig02FlushScatter(b *testing.B) {
	runExperiment(b, "fig2", "regions_last", func(ts []*experiment.Table) float64 {
		return lastCell(b, ts[0])
	})
}

func BenchmarkFig09SmallStrong(b *testing.B) {
	runExperiment(b, "fig9", "nvalloc_mops", func(ts []*experiment.Table) float64 {
		return lastCell(b, ts[0]) // Threadtest, max threads, NVAlloc-LOG
	})
}

// BenchmarkFig9EngineSerial and BenchmarkFig9EngineParallel regenerate
// Figure 9 with the experiment engine forced serial vs parallel; the
// ns/op ratio is the wall-clock speedup of the worker pool (the virtual
// time metrics are identical by construction).
func BenchmarkFig9EngineSerial(b *testing.B) {
	cfg := benchCfg
	cfg.Workers = 1
	for i := 0; i < b.N; i++ {
		experiment.Experiments["fig9"](cfg)
	}
}

func BenchmarkFig9EngineParallel(b *testing.B) {
	cfg := benchCfg
	cfg.Workers = 0 // GOMAXPROCS workers
	for i := 0; i < b.N; i++ {
		experiment.Experiments["fig9"](cfg)
	}
}

func BenchmarkFig10SmallWeak(b *testing.B) {
	runExperiment(b, "fig10", "nvallocgc_mops", func(ts []*experiment.Table) float64 {
		return lastCell(b, ts[0])
	})
}

func BenchmarkFig11Breakdown(b *testing.B) {
	runExperiment(b, "fig11", "full_vs_base", func(ts []*experiment.Table) float64 {
		return lastCell(b, ts[0])
	})
}

func BenchmarkFig12Large(b *testing.B) {
	runExperiment(b, "fig12", "nvalloc_mops", func(ts []*experiment.Table) float64 {
		return lastCell(b, ts[0])
	})
}

func BenchmarkFig13Space(b *testing.B) {
	runExperiment(b, "fig13", "nvalloc_peak_mib", func(ts []*experiment.Table) float64 {
		return lastCell(b, ts[0])
	})
}

func BenchmarkFig14FPTree(b *testing.B) {
	runExperiment(b, "fig14", "nvalloc_mops", func(ts []*experiment.Table) float64 {
		return lastCell(b, ts[0])
	})
}

func BenchmarkFig15Fragbench(b *testing.B) {
	runExperiment(b, "fig15", "nvalloc_w4_peak_mib", func(ts []*experiment.Table) float64 {
		return lastCell(b, ts[0])
	})
}

func BenchmarkFig16aStripes(b *testing.B) {
	runExperiment(b, "fig16a", "ms_32stripes", func(ts []*experiment.Table) float64 {
		return lastCell(b, ts[0])
	})
}

func BenchmarkFig16bSU(b *testing.B) {
	runExperiment(b, "fig16b", "morphs_su50", func(ts []*experiment.Table) float64 {
		return lastCell(b, ts[0])
	})
}

func BenchmarkFig17GCOverhead(b *testing.B) {
	runExperiment(b, "fig17", "slow_gcs", func(ts []*experiment.Table) float64 {
		return lastCell(b, ts[0])
	})
}

func BenchmarkFig18Recovery(b *testing.B) {
	runExperiment(b, "fig18", "nvallocgc_ms", func(ts []*experiment.Table) float64 {
		return lastCell(b, ts[0])
	})
}

func BenchmarkFig19EADRStripes(b *testing.B) {
	runExperiment(b, "fig19", "ms_32stripes", func(ts []*experiment.Table) float64 {
		return lastCell(b, ts[0])
	})
}

func BenchmarkFig20EADRSmall(b *testing.B) {
	runExperiment(b, "fig20", "nvalloc_mops", func(ts []*experiment.Table) float64 {
		return lastCell(b, ts[0])
	})
}

func BenchmarkFig21EADRLarge(b *testing.B) {
	runExperiment(b, "fig21", "nvalloc_mops", func(ts []*experiment.Table) float64 {
		return lastCell(b, ts[0])
	})
}

// ---- Ablations and micro-benchmarks ----------------------------------------

func BenchmarkAblationExtentFit(b *testing.B) {
	runExperiment(b, "ablation", "firstfit_mops", func(ts []*experiment.Table) float64 {
		return lastCell(b, ts[0])
	})
}

// BenchmarkMallocFreeSmall measures the raw hot path (real wall time per
// op, not virtual time) of NVAlloc-LOG's small allocator.
func BenchmarkMallocFreeSmall(b *testing.B) {
	dev := pmem.New(pmem.Config{Size: 256 << 20})
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		b.Fatal(err)
	}
	th := h.NewThread()
	defer th.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := th.Malloc(64)
		if err != nil {
			b.Fatal(err)
		}
		if err := th.Free(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMallocFreeClass sweeps the malloc/free pair cost across
// representative size classes — the per-class trajectory CI records in
// bench_ci.json and gates against bench_baseline.json, so a change
// that speeds up one class by slowing another (bitmap geometry, refill
// batch size, magazine capacity are all class-dependent) cannot hide
// inside a single-size headline number. Sizes cover the small-class
// spectrum from the minimum class through SmallMax, plus one shard-pool
// extent size for the large path.
func BenchmarkMallocFreeClass(b *testing.B) {
	for _, size := range []uint64{32, 64, 256, 1024, 4096, 16 << 10, 40 << 10} {
		b.Run(strconv.FormatUint(size, 10), func(b *testing.B) {
			dev := pmem.New(pmem.Config{Size: 512 << 20})
			h, err := core.Create(dev, core.DefaultOptions(core.LOG))
			if err != nil {
				b.Fatal(err)
			}
			th := h.NewThread()
			defer th.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := th.Malloc(size)
				if err != nil {
					b.Fatal(err)
				}
				if err := th.Free(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMallocFreeLarge measures the extent path with log-structured
// bookkeeping.
func BenchmarkMallocFreeLarge(b *testing.B) {
	dev := pmem.New(pmem.Config{Size: 512 << 20})
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		b.Fatal(err)
	}
	th := h.NewThread()
	defer th.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := th.Malloc(64 << 10)
		if err != nil {
			b.Fatal(err)
		}
		if err := th.Free(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMallocFreeParallel measures the multi-threaded hot path (real
// wall time, GOMAXPROCS goroutines each with its own Thread): a mix of
// 64 B small blocks (tcache + batched slab refill) and 40 KiB extents
// (shard pools). Run with -benchmem: allocs/op shows the Go-side garbage
// the hot path produces, which the extent cache and the lock-only stats
// path are meant to keep flat.
func BenchmarkMallocFreeParallel(b *testing.B) {
	dev := pmem.New(pmem.Config{Size: 512 << 20})
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		th := h.NewThread()
		defer th.Close()
		i := 0
		for pb.Next() {
			size := uint64(64)
			if i%8 == 7 {
				size = 40 << 10 // shard-pool path
			}
			i++
			p, err := th.Malloc(size)
			if err != nil {
				b.Error(err)
				return
			}
			if err := th.Free(p); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkRealMallocFreeParallel is BenchmarkMallocFreeParallel on the
// direct device: no virtual-time model, no per-line simulation locks,
// flushes as counters. The delta against the simulated variant is the
// cost of the simulator itself; the number's own trend across commits is
// the real-concurrency hot path (reported in bench_ci.json, not gated —
// wall-clock on shared CI is too noisy for a hard threshold).
func BenchmarkRealMallocFreeParallel(b *testing.B) {
	dev, err := pmem.NewDirect(pmem.DirectConfig{Size: 512 << 20})
	if err != nil {
		b.Fatal(err)
	}
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		th := h.NewThread()
		defer th.Close()
		i := 0
		for pb.Next() {
			size := uint64(64)
			if i%8 == 7 {
				size = 40 << 10 // shard-pool path
			}
			i++
			p, err := th.Malloc(size)
			if err != nil {
				b.Error(err)
				return
			}
			if err := th.Free(p); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkRealMallocFreeClass is the per-class sweep on the direct
// device — wall-clock nanoseconds per malloc/free pair with the
// simulator out of the way.
func BenchmarkRealMallocFreeClass(b *testing.B) {
	for _, size := range []uint64{32, 64, 256, 1024, 4096, 16 << 10, 40 << 10} {
		b.Run(strconv.FormatUint(size, 10), func(b *testing.B) {
			dev, err := pmem.NewDirect(pmem.DirectConfig{Size: 512 << 20})
			if err != nil {
				b.Fatal(err)
			}
			h, err := core.Create(dev, core.DefaultOptions(core.LOG))
			if err != nil {
				b.Fatal(err)
			}
			th := h.NewThread()
			defer th.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := th.Malloc(size)
				if err != nil {
					b.Fatal(err)
				}
				if err := th.Free(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGoRuntimeParallel runs the same 64 B / 40 KiB mix on Go's own
// allocator — the calibration ceiling for BenchmarkRealMallocFreeParallel
// (Go persists nothing and keeps magazines per-P, so it bounds what a
// heap that must track persistent metadata could ever reach).
func BenchmarkGoRuntimeParallel(b *testing.B) {
	var sink atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		s := uint64(0)
		for pb.Next() {
			size := 64
			if i%8 == 7 {
				size = 40 << 10
			}
			i++
			p := make([]byte, size)
			p[0] = byte(i)
			s += uint64(p[0])
		}
		sink.Add(s)
	})
}

// BenchmarkRemoteFree measures the batched remote-free path: one thread
// allocates small blocks, a second thread bound to another arena frees
// them. Frees accumulate in a per-owner buffer and drain in batches —
// one owner-resource section and one trailing fence per batch instead
// of one of each per free.
func BenchmarkRemoteFree(b *testing.B) {
	dev := pmem.New(pmem.Config{Size: 512 << 20})
	opts := core.DefaultOptions(core.LOG)
	opts.Arenas = 2
	h, err := core.Create(dev, opts)
	if err != nil {
		b.Fatal(err)
	}
	thA := h.NewThread() // owner arena: allocates
	thB := h.NewThread() // other arena: frees remotely
	defer thA.Close()
	defer thB.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := thA.Malloc(64)
		if err != nil {
			b.Fatal(err)
		}
		if err := thB.Free(p); err != nil {
			b.Fatal(err)
		}
	}
	thB.(alloc.Flusher).Flush()
}

// BenchmarkFPTreeInsert measures the real cost of tree inserts over the
// allocator.
func BenchmarkFPTreeInsert(b *testing.B) {
	dev := pmem.New(pmem.Config{Size: 1 << 30})
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		b.Fatal(err)
	}
	th := h.NewThread()
	defer th.Close()
	tr, err := fptree.Create(h, th, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(th, rng.Uint64(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoveryLOG measures the real wall time of restoring a
// crashed 128 MiB heap image and running WAL-based recovery on it (the
// image is built once; each iteration reloads and recovers it).
func BenchmarkRecoveryLOG(b *testing.B) {
	dev := pmem.New(pmem.Config{Size: 128 << 20, Strict: true})
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		b.Fatal(err)
	}
	th := h.NewThread()
	var prev pmem.PAddr
	for j := 0; j < 3000; j++ {
		p, err := th.Malloc(96)
		if err != nil {
			b.Fatal(err)
		}
		dev.WriteU64(p, uint64(prev))
		th.Ctx().Flush(pmem.CatOther, p, 8)
		prev = p
	}
	th.Ctx().PersistU64(pmem.CatOther, h.RootSlot(0), uint64(prev))
	th.Ctx().Merge()
	dev.Crash()
	dir := b.TempDir()
	img := dir + "/heap.img"
	if err := dev.SaveImage(img); err != nil {
		b.Fatal(err)
	}
	// One device is reused across iterations; LoadImage restores the
	// crashed state each time. Restore and recovery are measured together
	// so the benchmark converges quickly; recovery alone is ~0.3 ms.
	d2 := pmem.New(pmem.Config{Size: 128 << 20, Strict: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d2.LoadImage(img); err != nil {
			b.Fatal(err)
		}
		if _, _, err := core.Open(d2, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

var _ alloc.Heap = (*core.Heap)(nil)

func BenchmarkExtraHashIndex(b *testing.B) {
	runExperiment(b, "hashindex", "nvalloc_mops", func(ts []*experiment.Table) float64 {
		return lastCell(b, ts[0])
	})
}
