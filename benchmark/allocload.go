package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/extent"
	"nvalloc/internal/pmem"
	"nvalloc/internal/sizeclass"
)

// workers is the load's parallelism: one process, two goroutines, one
// allocator thread each (the machine the benchmark was built on has two
// cores).
const workers = 2

// checkEvery is how many steps a worker runs between looks at the clock,
// the shared live-byte counters and the blocks the workers hand each
// other (handed over in batches: a mutex taken per remote free contends
// often enough to park a worker for tens of microseconds).
const checkEvery = 256

// sampleEvery: one step in sampleEvery is timed on its own, giving the
// latency samples; the steps in between read no clock.
const sampleEvery = 16

// sliceLen and latSliceLen split the timed window: ops_s is the median
// over sliceLen slices of their throughput, the latency percentiles the
// medians over latSliceLen slices of their percentiles. The VM the benchmark was
// written on stalls for 5-10 ms a couple of times a second; a
// whole-window figure counts those stalls or not from run to run, while
// the median slice is one without a stall. (The whole-window p99 is
// still printed in the notes.)
const (
	sliceLen    = 500 * time.Millisecond
	latSliceLen = 100 * time.Millisecond
)

// traceEvery: the traced window keeps spans and call samples for one step
// in traceEvery (every call is still timed for busy_frac).
const traceEvery = 32

// held is one live block.
type held struct {
	addr pmem.PAddr
	size uint32
	gen  uint32
}

// inbox carries blocks one worker hands to the other to free.
type inbox struct {
	mu sync.Mutex
	q  []held
}

func (b *inbox) push(hs []held) {
	b.mu.Lock()
	b.q = append(b.q, hs...)
	b.mu.Unlock()
}

func (b *inbox) take(buf []held) []held {
	b.mu.Lock()
	buf = append(buf[:0], b.q...)
	b.q = b.q[:0]
	b.mu.Unlock()
	return buf
}

// path classifies a request by the allocator path that serves it.
func path(size uint32) int {
	switch {
	case sizeclass.IsSmall(uint64(size)):
		return 0
	case size <= extent.MaxShardAlloc:
		return 1
	}
	return 2
}

var pathNames = [3]string{"small", "shard", "extent"}

// callTrace is a worker's traced-window state.
type callTrace struct {
	clk       clock
	busyNS    int64
	sample    bool
	id        int64
	stepStart int64
	ns        [2][3][]float64 // [malloc, free][path] sampled call ns
	log       spanLog
}

// worker drives one allocator thread through its stream.
type worker struct {
	g       int
	th      alloc.Thread
	mem     pmem.Mem
	devSize uint64
	st      *stream
	slots   []held
	gen     uint32
	own     *inbox
	peer    *inbox
	out     []held // remote frees not yet handed to peer
	buf     []held

	idx *overlapIndex // PM pass only
	tr  *callTrace    // traced window only

	// live is this worker's held requested bytes; published every
	// checkEvery steps so peakLive approximates the peak of the sum.
	live     int64
	pub      *atomic.Int64
	peerPub  *atomic.Int64
	peakLive int64

	steps, ops, failed int64
	ops0               int64 // ops before the current window
	errs               []string
	lat, latAt         []int64 // sampled step ns, and when it started
	sliceOps           []int64 // ops completed by the end of each slice
	st0, st1           pmem.Stats
	now0, now1         int64
}

func (w *worker) fail(format string, args ...any) {
	w.failed++
	if len(w.errs) < 4 {
		w.errs = append(w.errs, fmt.Sprintf("worker %d: ", w.g)+fmt.Sprintf(format, args...))
	}
}

func (w *worker) timedCall(name uint8, size uint32, t0 int64) {
	t1 := w.tr.clk.now()
	w.tr.busyNS += t1 - t0
	if w.tr.sample {
		w.tr.ns[name-spMalloc][path(size)] = append(w.tr.ns[name-spMalloc][path(size)], float64(t1-t0))
		w.tr.log.add(span{name: name, parent: spStep, id: w.tr.id, start: t0, end: t1})
	}
}

func (w *worker) malloc(h *held, size uint32) {
	var t0 int64
	if w.tr != nil {
		t0 = w.tr.clk.now()
	}
	addr, err := w.th.Malloc(uint64(size))
	if w.tr != nil {
		w.timedCall(spMalloc, size, t0)
	}
	w.ops++
	if err != nil {
		w.fail("malloc(%d): %v", size, err)
		return
	}
	if addr == pmem.Null || uint64(addr)+uint64(size) > w.devSize {
		w.fail("malloc(%d) returned %#x outside the device", size, addr)
		return
	}
	w.gen++
	ok := w.idx == nil || w.idx.noteAlloc(addr, size)
	writeTags(w.mem, addr, size, w.gen)
	*h = held{addr: addr, size: size, gen: w.gen}
	w.live += int64(size)
	if !ok {
		w.fail("malloc(%d) = %#x overlaps a live block", size, addr)
	}
}

// free checks the block's tags, then frees it. A failed check counts the
// free as failed once.
func (w *worker) free(h held) {
	ok := tagsIntact(w.mem, h.addr, h.size, h.gen)
	if w.idx != nil && !w.idx.noteFree(h.addr) {
		ok = false
	}
	var t0 int64
	if w.tr != nil {
		t0 = w.tr.clk.now()
	}
	err := w.th.Free(h.addr)
	if w.tr != nil {
		w.timedCall(spFree, h.size, t0)
	}
	w.ops++
	switch {
	case err != nil:
		w.fail("free(%#x): %v", h.addr, err)
	case !ok:
		w.fail("block %#x (size %d) failed its tag or index check at free", h.addr, h.size)
	}
}

// exchange hands this worker's remote frees to its peer and frees what
// the peer handed over.
func (w *worker) exchange() {
	w.peer.push(w.out)
	w.out = w.out[:0]
	w.buf = w.own.take(w.buf)
	for _, h := range w.buf {
		w.free(h)
	}
}

func (w *worker) purge() {
	for i := range w.slots {
		if h := &w.slots[i]; h.addr != 0 && w.st.drop() {
			w.free(*h)
			w.live -= int64(h.size)
			*h = held{}
		}
	}
}

func (w *worker) step(o op) {
	if w.tr != nil {
		w.tr.id = int64(w.g)<<40 | w.steps
		w.tr.sample = w.steps%traceEvery == 0
		if w.tr.sample {
			w.tr.stepStart = w.tr.clk.now()
		}
	}
	if o.purge {
		w.purge()
	}
	h := &w.slots[o.slot]
	if h.addr != 0 {
		w.live -= int64(h.size)
		if o.remote {
			w.out = append(w.out, *h)
		} else {
			w.free(*h)
		}
		*h = held{}
	}
	w.malloc(h, o.size)
	w.steps++
	if w.tr != nil && w.tr.sample {
		w.tr.log.add(span{name: spStep, parent: noParent, id: w.tr.id, start: w.tr.stepStart, end: w.tr.clk.now()})
	}
}

// publish shares this worker's live bytes and tracks the peak of both.
func (w *worker) publish() {
	w.pub.Store(w.live)
	w.peakLive = max(w.peakLive, w.live+w.peerPub.Load())
}

// timed runs the worker on its own goroutine until dur of wall time has
// passed since start, shifting the size mix at dur/2.
func (w *worker) timed(dur time.Duration, start time.Time, stopped *sync.WaitGroup) {
	w.begin()
	shifted := false
	for i := 0; ; i++ {
		if i%checkEvery == 0 {
			w.exchange()
			w.publish()
			el := time.Since(start)
			for len(w.sliceOps) < int(el/sliceLen) {
				w.sliceOps = append(w.sliceOps, w.ops)
			}
			if el >= dur {
				break
			}
			shifted = el >= dur/2
		}
		if i%sampleEvery == 0 {
			t0 := time.Since(start)
			w.step(w.st.next(shifted))
			w.lat = append(w.lat, int64(time.Since(start)-t0))
			w.latAt = append(w.latAt, int64(t0))
			continue
		}
		w.step(w.st.next(shifted))
	}
	// Both workers stop handing over before either takes the last batch.
	w.peer.push(w.out)
	w.out = w.out[:0]
	stopped.Done()
	stopped.Wait()
	w.finish()
}

func (w *worker) begin() {
	c := w.th.Ctx()
	w.st0, w.now0, w.ops0 = c.Local(), c.Now, w.ops
	w.peakLive, w.sliceOps, w.lat, w.latAt = 0, nil, nil, nil
}

func (w *worker) finish() {
	w.exchange()
	w.publish()
	c := w.th.Ctx()
	w.st1, w.now1 = c.Local(), c.Now
}

// allocEnv is one heap under load.
type allocEnv struct {
	dev     pmem.Dev
	heap    *core.Heap
	workers [workers]*worker
	pubs    [workers]atomic.Int64
}

// newAllocEnv creates the heap and warms it up: the workers' threads take
// turns filling their slots from the pre-shift mix, on one goroutine, so
// the warm heap is the same on every run.
func newAllocEnv(spec *allocSpec, seed uint64, dev pmem.Dev, checked bool) (*allocEnv, error) {
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		return nil, fmt.Errorf("create heap: %w", err)
	}
	e := &allocEnv{dev: dev, heap: h}
	var idx *overlapIndex
	if checked {
		idx = newOverlapIndex()
	}
	boxes := [workers]*inbox{{}, {}}
	for g := range e.workers {
		e.workers[g] = &worker{
			g: g, th: h.NewThread(), mem: dev.Mem(), devSize: dev.Size(),
			st: newStream(spec, seed, g), slots: make([]held, spec.slots),
			own: boxes[g], peer: boxes[1-g], idx: idx,
			pub: &e.pubs[g], peerPub: &e.pubs[1-g],
		}
	}
	for i := 0; i < spec.slots; i++ {
		for _, w := range e.workers {
			w.malloc(&w.slots[i], w.st.warm())
		}
	}
	return e, nil
}

func (e *allocEnv) parallel(fn func(w *worker)) {
	var wg sync.WaitGroup
	for _, w := range e.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// timed runs every worker on its own goroutine for dur of wall time and
// returns the window's length.
func (e *allocEnv) timed(dur time.Duration) time.Duration {
	var stopped sync.WaitGroup
	stopped.Add(workers)
	start := time.Now()
	e.parallel(func(w *worker) { w.timed(dur, start, &stopped) })
	return time.Since(start)
}

// replay runs steps steps of every worker on one goroutine, the workers
// taking turns step by step, and returns the wall time it took. In
// virtual time the schedule is then a function of the seed alone, so the
// PM pass's results repeat exactly; the two threads still contend in the
// model, which charges each Resource's queueing whatever the real order.
// A non-nil after is called with the steps done so far after each round.
func (e *allocEnv) replay(steps int, after func(done int) error) (time.Duration, error) {
	start := time.Now()
	for _, w := range e.workers {
		w.begin()
	}
	for i := 0; i < steps; i++ {
		for _, w := range e.workers {
			if i%checkEvery == 0 {
				w.exchange()
				w.publish()
			}
			w.step(w.st.next(i >= steps/2))
		}
		if after != nil {
			if err := after(i + 1); err != nil {
				return 0, err
			}
		}
	}
	for _, w := range e.workers {
		w.peer.push(w.out)
		w.out = w.out[:0]
	}
	for _, w := range e.workers {
		w.finish()
	}
	return time.Since(start), nil
}

// ops is the Malloc+Free calls of the last window.
func (e *allocEnv) ops() (ops int64) {
	for _, w := range e.workers {
		ops += w.ops - w.ops0
	}
	return
}

func (e *allocEnv) peakLive() (peak int64) {
	for _, w := range e.workers {
		peak = max(peak, w.peakLive)
	}
	return
}

// sliceRate is the median over the window's slices of Malloc+Free calls
// per second.
func (e *allocEnv) sliceRate() float64 {
	n := len(e.workers[0].sliceOps)
	for _, w := range e.workers {
		n = min(n, len(w.sliceOps))
	}
	var rates []float64
	for i := 0; i < n; i++ {
		var ops int64
		for _, w := range e.workers {
			prev := w.ops0
			if i > 0 {
				prev = w.sliceOps[i-1]
			}
			ops += w.sliceOps[i] - prev
		}
		rates = append(rates, float64(ops)/sliceLen.Seconds())
	}
	return median(rates)
}

// collect moves every worker's failures into r and zeroes them.
func (e *allocEnv) collect(r *report) {
	for _, w := range e.workers {
		r.attempted += w.ops
		if w.failed > 0 {
			r.fail(w.failed, "%s", strings.Join(w.errs, "; "))
		}
		w.ops, w.ops0, w.failed, w.errs = 0, 0, 0, nil
	}
	if x := e.workers[0].idx; x != nil && x.nerr > 0 {
		r.note("overlap index: %d violations, first: %s", x.nerr, strings.Join(x.errs, "; "))
	}
}

// stats sums the workers' device counters over the last window, and
// returns the window's virtual makespan (the longest worker's clock
// advance).
func (e *allocEnv) stats() (s pmem.Stats, makespan int64) {
	for _, w := range e.workers {
		d := subStats(w.st1, w.st0)
		addStats(&s, &d)
		makespan = max(makespan, w.now1-w.now0)
	}
	return
}

func subStats(a, b pmem.Stats) pmem.Stats {
	a.Flushes -= b.Flushes
	a.Reflushes -= b.Reflushes
	a.SeqFlushes -= b.SeqFlushes
	a.RandFlushes -= b.RandFlushes
	a.Fences -= b.Fences
	for i := range a.CatNS {
		a.CatNS[i] -= b.CatNS[i]
		a.CatFlush[i] -= b.CatFlush[i]
	}
	a.LockWaitNS -= b.LockWaitNS
	a.BankWaitNS -= b.BankWaitNS
	return a
}

func addStats(a, b *pmem.Stats) {
	a.Flushes += b.Flushes
	a.Reflushes += b.Reflushes
	a.SeqFlushes += b.SeqFlushes
	a.RandFlushes += b.RandFlushes
	a.Fences += b.Fences
	for i := range a.CatNS {
		a.CatNS[i] += b.CatNS[i]
		a.CatFlush[i] += b.CatFlush[i]
	}
	a.LockWaitNS += b.LockWaitNS
	a.BankWaitNS += b.BankWaitNS
}

// heapCounters is a snapshot of the heap's public counters.
type heapCounters struct {
	hits, refills, slabCreates, morphs, refusals uint64
	splits, coalesces, grows, gcFast, gcSlow     uint64
}

func readCounters(h *core.Heap) (c heapCounters) {
	c.hits, c.refills, _, _ = h.CacheStats()
	c.slabCreates = h.SlabCreates()
	c.morphs, c.refusals = h.MorphStats()
	c.splits, c.coalesces, c.grows = h.LargeStats()
	if b := h.Blog(); b != nil {
		c.gcFast, c.gcSlow = b.GCCounts()
	}
	return
}

// reportCounters sets the core and blog counter metrics from the delta
// b-a over ops Malloc/Free calls.
func reportCounters(r *report, h *core.Heap, a, b heapCounters, ops int64) {
	perM := func(x, y uint64) float64 { return ratio(float64(y-x)*1e6, float64(ops)) }
	hits, refills := float64(b.hits-a.hits), float64(b.refills-a.refills)
	r.set("core.slabcache_hit_ratio", ratio(hits, hits+refills))
	r.set("core.slab_creates", perM(a.slabCreates, b.slabCreates))
	r.set("core.morphs", perM(a.morphs, b.morphs))
	r.set("core.morph_refusals", perM(a.refusals, b.refusals))
	r.set("core.large_splits", perM(a.splits, b.splits))
	r.set("core.large_coalesces", perM(a.coalesces, b.coalesces))
	r.set("core.large_grows", perM(a.grows, b.grows))
	r.set("blog.gc_fast", perM(a.gcFast, b.gcFast))
	r.set("blog.gc_slow", perM(a.gcSlow, b.gcSlow))
	if bl := h.Blog(); bl != nil {
		r.set("blog.active_chunks", float64(bl.ActiveChunks()))
	}
}

// lockTotals sums Contention() rows into the four reported groups.
func lockTotals(h *core.Heap) map[string]core.ResourceLoad {
	out := make(map[string]core.ResourceLoad)
	for _, row := range h.Contention() {
		var group string
		switch {
		case row.Name == "large" || row.Name == "book":
			group = row.Name
		case strings.HasPrefix(row.Name, "shard"):
			group = "shards"
		case strings.HasPrefix(row.Name, "arena"):
			group = "arenas"
		default:
			continue // per-shard book rows; "book" already sums them
		}
		t := out[group]
		t.WaitNS += row.WaitNS
		t.Acquires += row.Acquires
		out[group] = t
	}
	return out
}

// reportPM sets the PM-pass metrics from device counters s over ops
// operations and a virtual makespan in ns.
func reportPM(r *report, s pmem.Stats, ops int64, makespan int64) {
	per := func(x float64) float64 { return ratio(x, float64(ops)) }
	r.set("pm_mops", ratio(float64(ops)*1e3, float64(makespan)))
	r.set("pmem.flushes_per_op", per(float64(s.Flushes)))
	r.set("pmem.fences_per_op", per(float64(s.Fences)))
	r.set("pmem.flush_meta_per_op", per(float64(s.CatFlush[pmem.CatMeta])))
	r.set("pmem.flush_wal_per_op", per(float64(s.CatFlush[pmem.CatWAL])))
	r.set("pmem.flush_other_per_op", per(float64(s.CatFlush[pmem.CatSearch]+s.CatFlush[pmem.CatOther])))
	r.set("pmem.reflush_ratio", ratio(float64(s.Reflushes), float64(s.Flushes)))
	r.set("pmem.seq_flush_share", ratio(float64(s.SeqFlushes), float64(s.Flushes)))
	r.set("pmem.ns_per_op.meta", per(float64(s.CatNS[pmem.CatMeta])))
	r.set("pmem.ns_per_op.wal", per(float64(s.CatNS[pmem.CatWAL])))
	r.set("pmem.ns_per_op.search", per(float64(s.CatNS[pmem.CatSearch])))
	r.set("pmem.ns_per_op.other", per(float64(s.CatNS[pmem.CatOther])))
	r.set("pmem.lock_wait_ns_per_op", per(float64(s.LockWaitNS)))
	r.set("pmem.bank_wait_ns_per_op", per(float64(s.BankWaitNS)))
}

// goHeapMiB is the Go heap in use after a forced GC, less the given
// bytes (an anonymous DirectDev's image is itself a Go allocation).
func goHeapMiB(minus uint64) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc-minus) / mib
}

// setupRepeats is how many times an alloc run sets up; the median is
// reported.
const setupRepeats = 5

// recoverStops is how many unclean stops an alloc run recovers from.
// Recovery time follows the state at the stop (on alloc-large, the
// bookkeeping log's live chunks, which rise and fall with its GC over
// ~100k steps), and a single reopen also catches the VM's stalls, so the
// median over many stops spread over several GC cycles is reported.
const recoverStops = 24

func directDev(size uint64) (*pmem.DirectDev, error) {
	return pmem.NewDirect(pmem.DirectConfig{Size: size})
}

// setupAllocDirect sets up setupRepeats times, keeps the last and
// reports the median set-up time.
func setupAllocDirect(spec *allocSpec, seed uint64, r *report) (*allocEnv, error) {
	var times []float64
	var env *allocEnv
	for i := 0; i < setupRepeats; i++ {
		env = nil
		runtime.GC()
		t0 := time.Now()
		dev, err := directDev(spec.devSize)
		if err != nil {
			return nil, err
		}
		if env, err = newAllocEnv(spec, seed, dev, false); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			env.collect(r)
		}
	}
	r.set("setup_s", median(times))
	return env, nil
}

// runAlloc is one alloc-* run: the timed window on DirectDev, an unclean
// stop and reopen, then the stream's prefix on the simulated PM device. A
// traced run adds a second, traced DirectDev window.
func runAlloc(spec *allocSpec, cfg runConfig, r *report) error {
	env, err := setupAllocDirect(spec, cfg.seed, r)
	if err != nil {
		return err
	}
	c0 := readCounters(env.heap)
	elapsed := env.timed(cfg.window)
	ops := env.ops()
	opsS := env.sliceRate()
	r.set("ops_s", opsS)
	reportCounters(r, env.heap, c0, readCounters(env.heap), ops)
	var us []float64
	var slice []int
	for _, w := range env.workers {
		us = append(us, nsToUS(w.lat)...)
		for _, at := range w.latAt {
			slice = append(slice, int(at/int64(latSliceLen)))
		}
	}
	r.setPct("p50_us", slicedPct(slice, us, 0.50))
	r.setPct("lat.p99_us", slicedPct(slice, us, 0.99))
	r.note("whole-window step p99 = %.3f us", percentile(us, 0.99).Value)
	ds, _ := env.stats()
	r.set("pmem.direct_flushes_per_op", ratio(float64(ds.Flushes), float64(ops)))
	r.set("pmem.direct_fences_per_op", ratio(float64(ds.Fences), float64(ops)))
	for _, w := range env.workers {
		w.lat, w.latAt = nil, nil // the benchmark's own samples are not the heap's DRAM
	}
	r.set("dram_mib", goHeapMiB(env.dev.Size()))
	r.note("%s: %d Malloc+Free in %.2fs on DirectDev, peak live %.1f MiB", spec.name, ops, elapsed.Seconds(), float64(env.peakLive())/mib)
	env.collect(r)
	env = nil

	if err := recoverAlloc(spec, cfg.seed, r); err != nil {
		return err
	}

	if err := pmPass(spec, cfg.seed, r); err != nil {
		return err
	}
	if cfg.trace {
		return tracedAlloc(spec, cfg, opsS, r)
	}
	return nil
}

// recoverAlloc times recovery from recoverStops unclean stops. It replays
// a stream of 4*pmSteps steps on a fresh DirectDev after the warm-up, so
// the heap at each stop is one the seed alone fixes (the timed window's
// heap depends on how far the window got), and stops at recoverStops
// evenly spaced points of its second half. The second half starts at the
// size shift: on alloc-small the heap grows after it and recovery takes
// longer, and stops on both sides would put the median between the two.
// At each stop the device image is copied as it stands, threads and heap
// still open, and the first core.Open on the copy is timed: that is the
// open that recovers, a second finds the work done. Under the LOG
// contract a Malloc is durable once it returns (its bitmap commit is
// fenced before the call returns), so every small block held at the stop
// must read as allocated in the recovered copy.
func recoverAlloc(spec *allocSpec, seed uint64, r *report) error {
	runtime.GC()
	dev, err := directDev(spec.devSize)
	if err != nil {
		return err
	}
	env, err := newAllocEnv(spec, seed, dev, false)
	if err != nil {
		return err
	}
	img, err := directDev(spec.devSize)
	if err != nil {
		return err
	}
	steps := 4 * spec.pmSteps
	every := steps / 2 / recoverStops
	var times []float64
	stop := func(done int) error {
		if done <= steps/2 || (done-steps/2)%every != 0 || len(times) == recoverStops {
			return nil
		}
		refreshImage(img, dev)
		runtime.GC()
		t0 := time.Now()
		h, _, err := core.Open(img, core.DefaultOptions(core.LOG))
		if err != nil {
			return fmt.Errorf("reopen after unclean stop at step %d: %w", done, err)
		}
		times = append(times, time.Since(t0).Seconds())
		lost := 0
		for _, w := range env.workers {
			for _, b := range w.slots {
				if b.addr == 0 || !sizeclass.IsSmall(uint64(b.size)) {
					continue
				}
				r.attempted++
				if !h.BlockAllocated(b.addr) {
					lost++
				}
			}
		}
		if lost > 0 {
			r.fail(int64(lost), "%d held small blocks not allocated after reopen at step %d", lost, done)
		}
		return nil
	}
	if _, err := env.replay(steps, stop); err != nil {
		return err
	}
	env.collect(r)
	r.check(len(times) == recoverStops, "recovered from %d unclean stops, want %d", len(times), recoverStops)
	r.note("%s: recover_s over %d stops: min %.4f median %.4f max %.4f", spec.name, len(times), slices.Min(times), median(times), slices.Max(times))
	r.set("recover_s", median(times))
	r.set("recover.core_open_s", median(times))
	return nil
}

// refreshImage makes dst's image byte-equal to src's, copying only the
// 4 KiB pages that differ: pages neither device has touched, or that
// did not change since the last refresh, cost a compare, not a copy or a
// page fault.
func refreshImage(dst, src *pmem.DirectDev) {
	const page = 4096
	d, s := dst.Bytes(0, int(dst.Size())), src.Bytes(0, int(src.Size()))
	for off := 0; off < len(s); off += page {
		end := min(off+page, len(s))
		if !bytes.Equal(d[off:end], s[off:end]) {
			copy(d[off:end], s[off:end])
		}
	}
}

// pmPass replays the first spec.pmSteps steps of each worker's stream on
// the simulated ADR device, in virtual time, with the overlap index on.
func pmPass(spec *allocSpec, seed uint64, r *report) error {
	runtime.GC()
	env, err := newAllocEnv(spec, seed, pmem.New(pmem.Config{Size: spec.devSize}), true)
	if err != nil {
		return err
	}
	l0 := lockTotals(env.heap)
	env.heap.ResetPeak()
	wall, err := env.replay(spec.pmSteps, nil)
	if err != nil {
		return err
	}
	ops := env.ops()
	s, makespan := env.stats()
	reportPM(r, s, ops, makespan)
	r.set("space_amp", ratio(float64(env.heap.Peak()), float64(env.peakLive())))
	l1 := lockTotals(env.heap)
	for _, g := range []string{"large", "book", "shards", "arenas"} {
		r.set("lock."+g+".wait_ns_per_op", ratio(float64(l1[g].WaitNS-l0[g].WaitNS), float64(ops)))
		r.set("lock."+g+".acquires_per_op", ratio(float64(l1[g].Acquires-l0[g].Acquires), float64(ops)))
	}
	r.note("%s: PM pass %d Malloc+Free in %.3f virtual ms (%.1fs wall)", spec.name, ops, float64(makespan)/1e6, wall.Seconds())
	env.collect(r)
	return nil
}

// tracedAlloc sets up again with the same seed and runs one traced
// DirectDev window: every Malloc/Free timed, spans kept for one step in
// traceEvery.
func tracedAlloc(spec *allocSpec, cfg runConfig, untracedOpsS float64, r *report) error {
	runtime.GC()
	dev, err := directDev(spec.devSize)
	if err != nil {
		return err
	}
	env, err := newAllocEnv(spec, cfg.seed, dev, false)
	if err != nil {
		return err
	}
	clk := clock{base: time.Now()}
	for _, w := range env.workers {
		w.tr = &callTrace{clk: clk}
	}
	elapsed := env.timed(cfg.window)
	opsS := env.sliceRate()
	r.set("trace.overhead_frac", ratio(untracedOpsS-opsS, untracedOpsS))
	var busy, dropped int64
	var ns [2][3][]float64
	var spans []span
	for _, w := range env.workers {
		busy += w.tr.busyNS
		dropped += w.tr.log.dropped
		for k := range ns {
			for p := range ns[k] {
				ns[k][p] = append(ns[k][p], w.tr.ns[k][p]...)
			}
		}
		spans = append(spans, w.tr.log.spans...)
	}
	r.set("core.busy_frac", ratio(float64(busy), float64(workers)*float64(elapsed)))
	for k, kind := range []string{"malloc", "free"} {
		for p, pn := range pathNames {
			name := "core." + kind + "_ns." + pn
			r.setPct(name+".p50", percentile(ns[k][p], 0.50))
			r.setPct(name+".p99", percentile(ns[k][p], 0.99))
		}
	}
	r.setPct("trace.self_us.step.p50", percentile(selfTimes(spans, spStep), 0.50))
	file, err := writeSpans(cfg.outDir, fmt.Sprintf("%s-seed%d.tsv", spec.name, cfg.seed), spans)
	if err != nil {
		return err
	}
	r.note("traced window: %.0f ops/s vs %.0f untraced; %d spans in %s, %d dropped", opsS, untracedOpsS, len(spans), file, dropped)
	env.collect(r)
	return nil
}
