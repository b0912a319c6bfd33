package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/nvkv"
	"nvalloc/internal/pmem"
)

// smallSpec is alloc-small scaled down for tests.
func smallSpec() *allocSpec {
	s := allocSmall
	s.slots = 2048
	s.devSize = 64 * mib
	return &s
}

func TestSameSeedSameStream(t *testing.T) {
	spec := smallSpec()
	a, b, c := newStream(spec, 7, 1), newStream(spec, 7, 1), newStream(spec, 8, 1)
	differs := false
	for i := 0; i < 100000; i++ {
		shifted := i >= 50000
		if i < 1000 {
			if a.warm() != b.warm() {
				t.Fatalf("warm-up size %d differs", i)
			}
			c.warm()
		}
		oa, ob, oc := a.next(shifted), b.next(shifted), c.next(shifted)
		if oa != ob {
			t.Fatalf("op %d differs for one seed: %+v vs %+v", i, oa, ob)
		}
		differs = differs || oa != oc
	}
	if !differs {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
}

// TestBothPassesReplayTheStream runs the same seed's first steps on
// DirectDev and on the simulated device: every worker ends with the same
// step count, the same size in every slot and the same position in its
// stream, and neither pass reports a failure.
func TestBothPassesReplayTheStream(t *testing.T) {
	spec := smallSpec()
	const steps = 20000
	var ends [2]*allocEnv
	for i, checked := range []bool{false, true} {
		var dev pmem.Dev = pmem.New(pmem.Config{Size: spec.devSize})
		if !checked {
			d, err := directDev(spec.devSize)
			if err != nil {
				t.Fatal(err)
			}
			dev = d
		}
		env, err := newAllocEnv(spec, 3, dev, checked)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := env.replay(steps, nil); err != nil {
			t.Fatal(err)
		}
		r := newReport()
		env.collect(r)
		if r.failed != 0 || r.attempted == 0 {
			t.Fatalf("pass %d: %d of %d failed: %v", i, r.failed, r.attempted, r.errs)
		}
		ends[i] = env
	}
	for g := 0; g < workers; g++ {
		d, s := ends[0].workers[g], ends[1].workers[g]
		if d.steps != steps || s.steps != steps {
			t.Fatalf("worker %d ran %d and %d steps", g, d.steps, s.steps)
		}
		for i := range d.slots {
			if d.slots[i].size != s.slots[i].size {
				t.Fatalf("worker %d slot %d holds %d vs %d bytes", g, i, d.slots[i].size, s.slots[i].size)
			}
		}
		if d.st.rng.Uint64() != s.st.rng.Uint64() {
			t.Fatalf("worker %d streams ended at different positions", g)
		}
	}
}

// TestTimedWindowIsClean runs the concurrent wall-clock load loop (run it
// with -race): remote frees cross between the workers and every check
// passes.
func TestTimedWindowIsClean(t *testing.T) {
	spec := smallSpec()
	dev, err := directDev(spec.devSize)
	if err != nil {
		t.Fatal(err)
	}
	env, err := newAllocEnv(spec, 9, dev, false)
	if err != nil {
		t.Fatal(err)
	}
	env.timed(1200 * time.Millisecond)
	rate := env.sliceRate()
	r := newReport()
	env.collect(r)
	if r.failed != 0 || r.attempted == 0 || rate <= 0 {
		t.Fatalf("%d of %d failed (%v), rate %v", r.failed, r.attempted, r.errs, rate)
	}
}

func TestPercentileMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 2, 9, 10, 11, 100, 1000, 12345} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Floor(rng.ExpFloat64() * 100) // ties included
		}
		ref := append([]float64(nil), xs...)
		sort.Float64s(ref)
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			got := percentile(append([]float64(nil), xs...), q)
			// Reference: the smallest sample with at least q*n samples
			// at or below it.
			var want float64
			for _, v := range ref {
				le := 0
				for _, w := range ref {
					if w <= v {
						le++
					}
				}
				if float64(le) >= q*float64(n) {
					want = v
					break
				}
			}
			if got.Value != want || got.N != n {
				t.Fatalf("n=%d q=%v: got %v (n=%d), want %v", n, q, got.Value, got.N, want)
			}
			beyond := 0
			for _, v := range ref {
				if v > want {
					beyond++
				}
			}
			if got.OK && beyond < minTail && n-int(math.Ceil(q*float64(n))) < minTail {
				t.Fatalf("n=%d q=%v reported with %d samples beyond", n, q, beyond)
			}
		}
	}
	if p := percentile(nil, 0.5); p.OK || p.N != 0 {
		t.Fatalf("empty input reported: %+v", p)
	}
}

// overlapHeap injects a fault: its second Malloc returns an address
// inside the first block.
type overlapHeap struct{ alloc.Heap }

type overlapThread struct {
	alloc.Thread
	first pmem.PAddr
}

func (h overlapHeap) NewThread() alloc.Thread { return &overlapThread{Thread: h.Heap.NewThread()} }

func (t *overlapThread) Malloc(size uint64) (pmem.PAddr, error) {
	if t.first != 0 {
		return t.first + 56, nil // covers the first block's tail tag
	}
	a, err := t.Thread.Malloc(size)
	t.first = a
	return a, err
}

func TestChecksCatchOverlappingPair(t *testing.T) {
	dev, err := directDev(16 * mib)
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	// The reference checker sees the overlap.
	ref := alloc.NewChecker(overlapHeap{h})
	rth := ref.NewThread()
	rth.Malloc(64)
	rth.Malloc(64)
	if len(ref.Errors()) == 0 {
		t.Fatal("alloc.Checker missed the injected overlap")
	}

	// So do the benchmark's tags and index, and the run fails.
	spec := smallSpec()
	var pubs [2]atomic64
	w := &worker{th: overlapHeap{h}.NewThread(), mem: dev.Mem(), devSize: dev.Size(),
		st: newStream(spec, 1, 0), slots: make([]held, 2), own: &inbox{}, peer: &inbox{},
		idx: newOverlapIndex(), pub: &pubs[0].v, peerPub: &pubs[1].v}
	w.malloc(&w.slots[0], 64)
	w.malloc(&w.slots[1], 64)
	if w.idx.nerr == 0 {
		t.Fatal("overlap index missed the injected overlap")
	}
	if tagsIntact(w.mem, w.slots[0].addr, w.slots[0].size, w.slots[0].gen) {
		t.Fatal("the overlapping block did not clobber the first block's tag")
	}
	w.free(w.slots[0])
	env := &allocEnv{workers: [workers]*worker{w, {}}}
	r := newReport()
	env.collect(r)
	if r.failed == 0 || ratio(float64(r.failed), float64(r.attempted)) == 0 {
		t.Fatalf("injected overlap left fail_frac at 0 (%d/%d)", r.failed, r.attempted)
	}
}

// countingThread counts Flush calls that reach it.
type countingThread struct {
	alloc.Thread
	flushes int
}

func (c *countingThread) Flush() { c.flushes++ }

type countingHeap struct {
	alloc.Heap
	th *countingThread
}

func (h *countingHeap) NewThread() alloc.Thread {
	h.th = &countingThread{Thread: h.Heap.NewThread()}
	return h.th
}

func TestWrappersForward(t *testing.T) {
	dev, err := directDev(16 * mib)
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		t.Fatal(err)
	}
	inner := &countingHeap{Heap: h}
	th := h.NewThread()
	if _, err := th.Malloc(100 << 10); err != nil { // leases shard space
		t.Fatal(err)
	}
	th.Close()
	tr := &tracedHeap{Heap: inner, link: make(chan *connTrace, 1)}
	lo, ok := alloc.Heap(tr).(interface{ LeaseOverhead() uint64 })
	if !ok {
		t.Fatal("tracedHeap hides LeaseOverhead")
	}
	// countingHeap does not forward it, so go straight to core.
	tr.Heap = h
	if lo.LeaseOverhead() != h.LeaseOverhead() || h.LeaseOverhead() == 0 {
		t.Fatalf("LeaseOverhead %d, heap says %d", lo.LeaseOverhead(), h.LeaseOverhead())
	}
	tr.Heap = inner

	ct := newConnTrace(clock{}, 0, newReqOffsets(1), 1)
	ct.linked = make(chan struct{})
	tr.link <- ct
	tth := tr.NewThread()
	if _, ok := tth.(*tracedThread); !ok {
		t.Fatal("linked NewThread did not return a traced thread")
	}
	f, ok := tth.(alloc.Flusher)
	if !ok {
		t.Fatal("tracedThread hides alloc.Flusher")
	}
	f.Flush()
	if inner.th.flushes != 1 {
		t.Fatalf("Flush reached the inner thread %d times", inner.th.flushes)
	}

	// The conn wrapper passes bytes through and opens and closes the
	// request's server span.
	a, b := net.Pipe()
	tc := &tracedConn{Conn: b, ct: ct}
	ct.offs.publish(0, 5)
	go a.Write([]byte("hello"))
	buf := make([]byte, 5)
	if n, err := tc.Read(buf); err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
	go func() { a.Read(buf) }()
	if _, err := tc.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if ct.next != 1 || ct.open != 1 || ct.start[0] == 0 || ct.end[0] < ct.start[0] {
		t.Fatalf("server span not recorded: next %d open %d span [%d,%d]", ct.next, ct.open, ct.start[0], ct.end[0])
	}
}

// TestTracedKVSameFlushes serves one connection's first commands with and
// without tracing: the device must see exactly the same flushes.
func TestTracedKVSameFlushes(t *testing.T) {
	if testing.Short() {
		t.Skip("prefills 200k keys twice")
	}
	const n = 20000
	var flushes [2]uint64
	for i, traced := range []bool{false, true} {
		dev, err := directDev(kvDevSize)
		if err != nil {
			t.Fatal(err)
		}
		env, err := newKVEnv(5, dev, "", traced)
		if err != nil {
			t.Fatal(err)
		}
		s, err := startServer(env)
		if err != nil {
			t.Fatal(err)
		}
		var ct *connTrace
		if traced {
			ct = newConnTrace(clock{}, 0, nil, 0)
		}
		conn, err := s.dial(ct)
		if err != nil {
			t.Fatal(err)
		}
		f0 := dev.Stats().Flushes
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		for j := 0; j < n; j++ {
			q := env.streams[0].next()
			if _, err := writeReq(bw, q); err != nil {
				t.Fatal(err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			rep, err := nvkv.ReadReply(br)
			if err != nil || !replyOK(q, rep) {
				t.Fatalf("command %d: reply %+v, %v", j, rep, err)
			}
		}
		s.close()
		flushes[i] = dev.Stats().Flushes - f0
	}
	if flushes[0] != flushes[1] || flushes[0] == 0 {
		t.Fatalf("untraced run flushed %d lines, traced %d", flushes[0], flushes[1])
	}
}

type atomic64 struct{ v atomic.Int64 }

// TestMetricTablesMatchBenchmarkJSON keeps BENCHMARK.json and the tables
// the program prints in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark directory")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.defs))
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Fatalf("metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}

// refreshImage must leave the copy byte-equal to the source, whether the
// copy is fresh, was written to by the last open, or already matches.
func TestRefreshImageCopiesDifferingPages(t *testing.T) {
	const size = 1 << 20
	src, err := directDev(size)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := directDev(size)
	if err != nil {
		t.Fatal(err)
	}
	src.WriteU64(0, 1)
	src.WriteU64(5*4096+8, 2)
	src.WriteU64(size-8, 3)
	for i, dirty := range []pmem.PAddr{7 * 4096, 5*4096 + 8, 0} {
		dst.WriteU64(dirty, 99)
		refreshImage(dst, src)
		if !bytes.Equal(dst.Bytes(0, size), src.Bytes(0, size)) {
			t.Fatalf("refresh %d: copy differs from the source", i)
		}
	}
}
