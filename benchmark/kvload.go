package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"nvalloc/internal/alloc"
	"nvalloc/internal/core"
	"nvalloc/internal/nvkv"
	"nvalloc/internal/pmem"
	"nvalloc/internal/traffic"
)

// kv-zipf parameters. The open-loop rate is about half of the closed-loop
// saturation throughput (~200k replies/s at 2 connections x depth 16 on
// the 2-vCPU VM the benchmark was written on). At much lower rates the
// latency is dominated by the generator's timer wake-ups rather than the
// service.
const (
	kvConns    = 2
	kvKeys     = 200_000
	kvRate     = 100_000 // open-loop requests/s, all connections together
	kvDepth    = 16      // saturation-phase pipeline depth per connection
	kvDevSize  = 384 * mib
	kvPMOps    = 256 << 10 // PM-pass commands per connection
	kvRootSlot = 0
	// kvLateUS is the lag past which a request counts as sent late, and
	// kvMaxLate the generator validity bound: a run that sends more than
	// that share of its requests late did not offer the load it claims,
	// and fails. (A few late requests are expected: a server stall fills
	// the socket buffer and holds the sender up too; their latency still
	// counts from the intended send time.)
	kvLateUS  = 1000
	kvMaxLate = 0.2
)

var (
	kvValues  = mixOf(16, 20, 64, 25, 256, 25, 1024, 15, 4096, 10, 16384, 5)
	kvPrefill = mixOf(16, 30, 32, 30, 64, 25, 128, 10, 256, 5)
)

const (
	cmdGet uint8 = iota
	cmdSet
	cmdDel
)

var cmdMix = mixOf(uint32(cmdGet), 65, uint32(cmdSet), 30, uint32(cmdDel), 5)

// kvReq is one command with the reply the connection's shadow model
// expects. For GET, seq/size name the expected value (size 0: absent);
// for DEL, size is the value size before the delete (0: absent).
type kvReq struct {
	kind uint8
	key  uint32
	seq  uint32
	size uint32
}

// kvStream is one connection's seeded command stream and the exact
// shadow model of the keys it owns. Every command, reads included, goes
// to keys congruent to the connection number modulo kvConns — the
// traffic.Engine sharding, extended to reads so each GET has one
// expected reply.
type kvStream struct {
	conn int
	rng  *rand.Rand
	zipf *rand.Zipf
	seq  []uint32 // by key/kvConns: last SET sequence number
	size []uint32 // by key/kvConns: current value size, 0 = absent
}

func newKVStream(seed uint64, conn int) *kvStream {
	rng := rand.New(rand.NewPCG(seed, 0xbb67ae8584caa73b^uint64(conn)))
	s := &kvStream{conn: conn, rng: rng, zipf: rand.NewZipf(rng, 1.01, 1, kvKeys-1),
		seq: make([]uint32, kvKeys/kvConns), size: make([]uint32, kvKeys/kvConns)}
	for i := range s.size {
		s.seq[i], s.size[i] = 1, kvPrefill.pick(rng.Uint64())
	}
	return s
}

func (s *kvStream) keyAt(i int) uint32 { return uint32(i*kvConns + s.conn) }

// next draws a command and applies it to the shadow model.
func (s *kvStream) next() kvReq {
	kind := uint8(cmdMix.pick(s.rng.Uint64()))
	k := s.zipf.Uint64()
	k = k - k%kvConns + uint64(s.conn)
	if k >= kvKeys {
		k -= kvConns
	}
	size := kvValues.pick(s.rng.Uint64())
	i := k / kvConns
	r := kvReq{kind: kind, key: uint32(k), seq: s.seq[i], size: s.size[i]}
	switch kind {
	case cmdSet:
		s.seq[i]++
		s.size[i] = size
		r.seq, r.size = s.seq[i], size
	case cmdDel:
		s.size[i] = 0
	}
	return r
}

// liveBytes is the key+value bytes the shadow model holds.
func (s *kvStream) liveBytes() (n int64) {
	for i, sz := range s.size {
		if sz != 0 {
			n += int64(len(traffic.KeyName(uint64(s.keyAt(i))))) + int64(sz)
		}
	}
	return
}

func keyBytes(k uint32) []byte { return []byte(traffic.KeyName(uint64(k))) }

func valBytes(k, seq, size uint32) []byte {
	return traffic.ValBytes(uint64(k), uint64(seq), int(size))
}

// writeReq writes r in the wire format and returns its length in bytes.
func writeReq(bw *bufio.Writer, r kvReq) (int, error) {
	before := bw.Buffered()
	var err error
	switch r.kind {
	case cmdGet:
		err = nvkv.WriteCommand(bw, []byte("GET"), keyBytes(r.key))
	case cmdSet:
		err = nvkv.WriteCommand(bw, []byte("SET"), keyBytes(r.key), valBytes(r.key, r.seq, r.size))
	default:
		err = nvkv.WriteCommand(bw, []byte("DEL"), keyBytes(r.key))
	}
	return bw.Buffered() - before, err
}

// replyOK checks one reply against the shadow model's expectation.
func replyOK(r kvReq, rep nvkv.Reply) bool {
	switch r.kind {
	case cmdGet:
		if r.size == 0 {
			return rep.Kind == nvkv.ReplyNil
		}
		return rep.Kind == nvkv.ReplyBulk && bytes.Equal(rep.Bulk, valBytes(r.key, r.seq, r.size))
	case cmdSet:
		return rep.Kind == nvkv.ReplyStatus && rep.Status == "OK"
	default:
		want := int64(0)
		if r.size != 0 {
			want = 1
		}
		return rep.Kind == nvkv.ReplyInt && rep.Int == want
	}
}

// storeOK runs r directly against a store (the PM pass and prefill) and
// checks the outcome the same way.
func storeOK(st *nvkv.Store, th alloc.Thread, r kvReq) bool {
	k := keyBytes(r.key)
	switch r.kind {
	case cmdGet:
		v, ok, err := st.Get(th, 0, k)
		if r.size == 0 {
			return err == nil && !ok
		}
		return err == nil && ok && bytes.Equal(v, valBytes(r.key, r.seq, r.size))
	case cmdSet:
		return st.Set(th, 0, k, valBytes(r.key, r.seq, r.size), 0) == nil
	default:
		ok, err := st.Del(th, k)
		return err == nil && ok == (r.size != 0)
	}
}

// kvEnv is one store under load.
type kvEnv struct {
	dev     pmem.Dev
	heap    *core.Heap
	store   *nvkv.Store
	path    string // heap file, "" for the simulated device
	streams [kvConns]*kvStream
	traced  *tracedHeap
}

// newKVEnv creates the heap and store on dev and prefills every key with
// its seq-1 value. With traced, the store is created over a tracedHeap.
func newKVEnv(seed uint64, dev pmem.Dev, path string, traced bool) (*kvEnv, error) {
	h, err := core.Create(dev, core.DefaultOptions(core.LOG))
	if err != nil {
		return nil, fmt.Errorf("create heap: %w", err)
	}
	e := &kvEnv{dev: dev, heap: h, path: path}
	var ah alloc.Heap = h
	if traced {
		e.traced = &tracedHeap{Heap: h, link: make(chan *connTrace, 1)}
		ah = e.traced
	}
	th := h.NewThread()
	e.store, err = nvkv.CreateStore(ah, th, kvRootSlot, nvkv.StoreConfig{})
	th.Close()
	if err != nil {
		return nil, fmt.Errorf("create store: %w", err)
	}
	// The connections' shards are prefilled on one goroutine, a key of
	// each in turn, so the heap the phases start from is the same on
	// every run.
	var ths [kvConns]alloc.Thread
	for c := range e.streams {
		e.streams[c] = newKVStream(seed, c)
		ths[c] = h.NewThread()
		defer ths[c].Close()
	}
	for i := 0; i < kvKeys/kvConns; i++ {
		for c, s := range e.streams {
			k := s.keyAt(i)
			if err := e.store.Set(ths[c], 0, keyBytes(k), valBytes(k, 1, s.size[i]), 0); err != nil {
				return nil, fmt.Errorf("prefill %s: %w", traffic.KeyName(uint64(k)), err)
			}
		}
	}
	return e, nil
}

// release drops the env's device; the heap is not closed.
func (e *kvEnv) release() {
	if d, ok := e.dev.(*pmem.DirectDev); ok {
		d.Close()
	}
	if e.path != "" {
		os.Remove(e.path)
	}
}

func kvFileEnv(seed uint64, dir string, n int, traced bool) (*kvEnv, error) {
	path := filepath.Join(dir, fmt.Sprintf("heap-%d-%d", os.Getpid(), n))
	dev, err := pmem.NewDirect(pmem.DirectConfig{Size: kvDevSize, Path: path})
	if err != nil {
		return nil, err
	}
	e, err := newKVEnv(seed, dev, path, traced)
	if err != nil {
		dev.Close()
		os.Remove(path)
	}
	return e, err
}

// clientLog is one connection's open-loop record, by request index.
type clientLog struct {
	kind     []uint8
	intended []int64
	sent     []int64
	recv     []int64
	offs     *reqOffsets // cumulative end offsets, for the server tracer
	failed   int64
	first    string
}

// server runs the nvkv server over loopback TCP, one ServeConn goroutine
// per accepted connection, each conn wrapped with its tracer when traced.
type server struct {
	srv   *nvkv.Server
	ln    net.Listener
	wg    sync.WaitGroup
	env   *kvEnv
	conns []net.Conn // client ends
}

func startServer(env *kvEnv) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &server{srv: nvkv.NewServer(env.store, nvkv.ServerConfig{}), ln: ln, env: env}, nil
}

// dial opens one client connection and starts serving its server end.
// ct, when non-nil, traces the server end.
func (s *server) dial(ct *connTrace) (net.Conn, error) {
	c, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		return nil, err
	}
	sc, err := s.ln.Accept()
	if err != nil {
		c.Close()
		return nil, err
	}
	var served net.Conn = sc
	if ct != nil {
		// ServeConn's first act is heap.NewThread; hand it ct and wait
		// until it has taken it, so conns never swap tracers.
		ct.linked = make(chan struct{})
		s.env.traced.link <- ct
		served = &tracedConn{Conn: sc, ct: ct}
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.srv.ServeConn(served)
	}()
	if ct != nil {
		<-ct.linked
	}
	s.conns = append(s.conns, c)
	return c, nil
}

// hangUp closes the client ends and waits until every ServeConn has
// returned (and so closed its allocator thread, merging its counters).
func (s *server) hangUp() {
	for _, c := range s.conns {
		c.Close()
	}
	s.conns = nil
	s.wg.Wait()
}

func (s *server) close() {
	s.srv.Close()
	s.ln.Close()
	s.hangUp()
}

// openLoop offers kvRate requests/s over kvConns connections for dur,
// each request timed from its intended send time. Traced, the server
// ends carry connTraces sized for the phase.
func openLoop(s *server, dur time.Duration, clk clock, traced bool) ([kvConns]*clientLog, [kvConns]*connTrace, error) {
	var logs [kvConns]*clientLog
	var cts [kvConns]*connTrace
	interval := float64(time.Second) * kvConns / kvRate
	total := int(float64(dur) / interval)
	conns := make([]net.Conn, kvConns)
	for c := range conns {
		logs[c] = &clientLog{kind: make([]uint8, total), intended: make([]int64, total),
			sent: make([]int64, total), recv: make([]int64, total), offs: newReqOffsets(total)}
		if traced {
			cts[c] = newConnTrace(clk, c, logs[c].offs, total)
		}
		var err error
		if conns[c], err = s.dial(cts[c]); err != nil {
			return logs, cts, err
		}
	}
	t0 := clk.now()
	var wg sync.WaitGroup
	errs := make([]error, 2*kvConns)
	for c := range conns {
		// pending holds every request of the phase, so the receiver
		// never holds the sender up.
		pending := make(chan kvReq, total)
		wg.Add(2)
		go func(c int) {
			defer wg.Done()
			errs[2*c] = sendOpen(conns[c], s.env.streams[c], logs[c], pending, clk, t0+int64(c)*int64(interval)/kvConns, interval, total)
			if errs[2*c] != nil {
				conns[c].Close() // the receiver would wait for replies never sent
			}
		}(c)
		go func(c int) {
			defer wg.Done()
			errs[2*c+1] = recvOpen(conns[c], logs[c], pending, clk)
		}(c)
	}
	wg.Wait()
	return logs, cts, errors.Join(errs...)
}

func sendOpen(conn net.Conn, st *kvStream, log *clientLog, pending chan<- kvReq, clk clock, t0 int64, interval float64, total int) error {
	defer close(pending)
	bw := bufio.NewWriterSize(conn, 64<<10)
	var off int64
	for i := 0; i < total; {
		now := clk.now()
		due := min(total, int(float64(now-t0)/interval)+1)
		for ; i < due; i++ {
			r := st.next()
			n, err := writeReq(bw, r)
			if err != nil {
				return err
			}
			off += int64(n)
			log.offs.publish(i, off)
			log.kind[i] = r.kind
			log.intended[i] = t0 + int64(float64(i)*interval)
			log.sent[i] = now
			pending <- r
		}
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("open-loop send: %w", err)
		}
		if i < total {
			next := t0 + int64(float64(i)*interval)
			if d := next - clk.now(); d > 0 {
				time.Sleep(time.Duration(d))
			}
		}
	}
	return nil
}

func recvOpen(conn net.Conn, log *clientLog, pending <-chan kvReq, clk clock) error {
	br := bufio.NewReaderSize(conn, 64<<10)
	i := 0
	for r := range pending {
		rep, err := nvkv.ReadReply(br)
		if err != nil {
			return fmt.Errorf("open-loop reply %d: %w", i, err)
		}
		log.recv[i] = clk.now()
		if !replyOK(r, rep) {
			log.failed++
			if log.first == "" {
				log.first = fmt.Sprintf("command %d on key %s: unexpected reply %+v", r.kind, traffic.KeyName(uint64(r.key)), rep)
			}
		}
		i++
	}
	return nil
}

// saturate runs closed-loop batches of kvDepth commands per connection
// for dur and returns the replies received and the median over sliceLen
// slices of the reply rate.
func saturate(s *server, dur time.Duration, cts [kvConns]*connTrace, r *report) (int64, float64, error) {
	conns := make([]net.Conn, kvConns)
	for c := range conns {
		var err error
		if conns[c], err = s.dial(cts[c]); err != nil {
			return 0, 0, err
		}
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var replies int64
	var sliceN [kvConns][]int64 // replies by the end of each slice
	errs := make([]error, kvConns)
	start := time.Now()
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			br := bufio.NewReaderSize(conns[c], 64<<10)
			bw := bufio.NewWriterSize(conns[c], 64<<10)
			var batch [kvDepth]kvReq
			var n, bad int64
			first := ""
			for {
				el := time.Since(start)
				for len(sliceN[c]) < int(el/sliceLen) {
					sliceN[c] = append(sliceN[c], n)
				}
				if el >= dur {
					break
				}
				for i := range batch {
					batch[i] = s.env.streams[c].next()
					if _, err := writeReq(bw, batch[i]); err != nil {
						errs[c] = err
						return
					}
				}
				if err := bw.Flush(); err != nil {
					errs[c] = err
					return
				}
				for _, q := range batch {
					rep, err := nvkv.ReadReply(br)
					if err != nil {
						errs[c] = err
						return
					}
					n++
					if !replyOK(q, rep) {
						bad++
						if first == "" {
							first = fmt.Sprintf("saturation: unexpected reply %+v to command %d on %s", rep, q.kind, traffic.KeyName(uint64(q.key)))
						}
					}
				}
			}
			mu.Lock()
			replies += n
			r.attempted += n
			if bad > 0 {
				r.fail(bad, "%s", first)
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	var rates []float64
	for i := 0; i < min(len(sliceN[0]), len(sliceN[1])); i++ {
		var d int64
		for _, sn := range sliceN {
			d += sn[i]
			if i > 0 {
				d -= sn[i-1]
			}
		}
		rates = append(rates, float64(d)/sliceLen.Seconds())
	}
	return replies, median(rates), errors.Join(errs...)
}

// kvPhaseResult is what kvPhases measured: the open-loop phase's client
// logs, server tracers, SET count and device flushes, and the saturation
// throughput.
type kvPhaseResult struct {
	logs    [kvConns]*clientLog
	cts     [kvConns]*connTrace
	opsS    float64
	cmds    int64 // commands answered in both phases
	sets    int64
	flushes uint64
}

// kvPhases runs the open-loop phase, then the saturation phase on fresh
// connections (so the open-loop threads have merged their counters).
func kvPhases(s *server, cfg runConfig, clk clock, traced bool, r *report) (kvPhaseResult, error) {
	var res kvPhaseResult
	d0 := s.env.dev.Stats()
	var err error
	res.logs, res.cts, err = openLoop(s, cfg.window/2, clk, traced)
	s.hangUp() // merges the open-loop threads' flush counters
	if err != nil {
		return res, err
	}
	d := subStats(s.env.dev.Stats(), d0)
	res.flushes = d.Flushes
	var cmds int64
	for _, l := range res.logs {
		r.attempted += int64(len(l.kind))
		cmds += int64(len(l.kind))
		if l.failed > 0 {
			r.fail(l.failed, "%s", l.first)
		}
		for _, k := range l.kind {
			if k == cmdSet {
				res.sets++
			}
		}
	}
	r.set("pmem.direct_flushes_per_op", ratio(float64(d.Flushes), float64(cmds)))
	r.set("pmem.direct_fences_per_op", ratio(float64(d.Fences), float64(cmds)))
	var satCT [kvConns]*connTrace
	if traced {
		for c := range satCT {
			satCT[c] = newConnTrace(clk, c, nil, 0)
		}
	}
	n, rate, err := saturate(s, cfg.window-cfg.window/2, satCT, r)
	res.opsS = rate
	res.cmds = cmds + n
	return res, err
}

// runKV is one kv-zipf run: set-up, the open-loop and saturation phases,
// an unclean stop and reopen with the durability check, and the PM pass.
// A traced run adds a traced repeat of both phases on a fresh set-up.
func runKV(cfg runConfig, r *report) error {
	dir := filepath.Join(cfg.workDir, "kv")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var env *kvEnv
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			env.release()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if env, err = kvFileEnv(cfg.seed, dir, i, false); err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(times))
	defer func() { env.release() }()

	s, err := startServer(env)
	if err != nil {
		return err
	}
	clk := clock{base: time.Now()}
	c0 := readCounters(env.heap)
	res, err := kvPhases(s, cfg, clk, false, r)
	if err != nil {
		s.close()
		return err
	}
	reportCounters(r, env.heap, c0, readCounters(env.heap), res.cmds)
	r.set("ops_s", res.opsS)
	r.set("nvkv.flushes_per_set", ratio(float64(res.flushes), float64(res.sets)))
	reportOpenLoop(r, res.logs)
	var live int64
	for _, st := range env.streams {
		live += st.liveBytes()
	}
	r.set("space_amp", ratio(float64(env.heap.Used()), float64(live)))
	res.logs = [kvConns]*clientLog{} // the benchmark's own samples are not the server's DRAM
	r.set("dram_mib", goHeapMiB(0))
	s.close()

	// Unclean stop: the heap is dropped without Close and the file
	// mapping released, as a killed process would leave it.
	env.dev.(*pmem.DirectDev).Close()
	if err := recoverKV(env, r); err != nil {
		return err
	}
	if err := kvPMPass(cfg.seed, r); err != nil {
		return err
	}
	if cfg.trace {
		return tracedKV(cfg, dir, res.opsS, res.flushes, res.sets, r)
	}
	return nil
}

// reportOpenLoop sets latency and generator metrics from the logs.
func reportOpenLoop(r *report, logs [kvConns]*clientLog) {
	var all, get, set, lag []float64
	var slice []int
	late := 0
	t0 := min(logs[0].intended[0], logs[kvConns-1].intended[0])
	for _, l := range logs {
		for i := range l.kind {
			us := float64(l.recv[i]-l.intended[i]) / 1e3
			all = append(all, us)
			slice = append(slice, int((l.intended[i]-t0)/int64(latSliceLen)))
			switch l.kind[i] {
			case cmdGet:
				get = append(get, us)
			case cmdSet:
				set = append(set, us)
			}
			lg := float64(l.sent[i]-l.intended[i]) / 1e3
			lag = append(lag, lg)
			if lg > kvLateUS {
				late++
			}
		}
	}
	r.setPct("p50_us", slicedPct(slice, all, 0.50))
	r.setPct("lat.p99_us", slicedPct(slice, all, 0.99))
	r.note("whole-phase request p99 = %.3f us", percentile(all, 0.99).Value)
	r.setPct("kv.get_p50_us", percentile(get, 0.50))
	r.setPct("kv.get_p99_us", percentile(get, 0.99))
	r.setPct("kv.set_p50_us", percentile(set, 0.50))
	r.setPct("kv.set_p99_us", percentile(set, 0.99))
	r.setPct("gen.lag_us.p50", percentile(lag, 0.50))
	r.setPct("gen.lag_us.p99", percentile(lag, 0.99))
	lateFrac := ratio(float64(late), float64(len(lag)))
	r.set("gen.late_frac", lateFrac)
	r.check(lateFrac <= kvMaxLate, "open-loop generator lagged: %.1f%% of requests sent over %d us late", 100*lateFrac, kvLateUS)
}

// kvRecoverRepeats is how many times a kv run recovers from the unclean
// stop; the median is reported (a single reopen catches the VM's stalls).
const kvRecoverRepeats = 61

// recoverKV times recovery from the unclean stop kvRecoverRepeats times.
// Each time it copies the heap file's image as the stop left it into a
// DirectDev and times the first core.Open + nvkv.OpenStore on the copy:
// that is the open that recovers (a second finds the work done and is
// cheaper). Then it reopens the file itself and checks every key against
// the shadow model: each acknowledged SET reads back byte-exact and each
// acknowledged DEL is absent.
func recoverKV(env *kvEnv, r *report) error {
	file, err := pmem.NewDirect(pmem.DirectConfig{Size: kvDevSize, Path: env.path})
	if err != nil {
		return err
	}
	defer file.Close()
	img, err := directDev(kvDevSize)
	if err != nil {
		return err
	}
	var total, coreOpen, storeOpen []float64
	for i := 0; i < kvRecoverRepeats; i++ {
		refreshImage(img, file)
		runtime.GC()
		t0 := time.Now()
		h, _, err := core.Open(img, core.DefaultOptions(core.LOG))
		if err != nil {
			return fmt.Errorf("reopen heap: %w", err)
		}
		t1 := time.Now()
		if _, err := nvkv.OpenStore(h, kvRootSlot, nvkv.StoreConfig{}); err != nil {
			return fmt.Errorf("reopen store: %w", err)
		}
		t2 := time.Now()
		total = append(total, t2.Sub(t0).Seconds())
		coreOpen = append(coreOpen, t1.Sub(t0).Seconds())
		storeOpen = append(storeOpen, t2.Sub(t1).Seconds())
	}
	r.note("kv-zipf: recover_s over %d reopens: min %.4f median %.4f max %.4f", len(total), slices.Min(total), median(total), slices.Max(total))
	r.set("recover_s", median(total))
	r.set("recover.core_open_s", median(coreOpen))
	r.set("recover.store_open_s", median(storeOpen))

	h, _, err := core.Open(file, core.DefaultOptions(core.LOG))
	if err != nil {
		return fmt.Errorf("reopen heap file: %w", err)
	}
	st, err := nvkv.OpenStore(h, kvRootSlot, nvkv.StoreConfig{})
	if err != nil {
		return fmt.Errorf("reopen store in heap file: %w", err)
	}
	th := h.NewThread()
	defer th.Close()
	for _, s := range env.streams {
		for i := range s.size {
			k := s.keyAt(i)
			r.check(storeOK(st, th, kvReq{kind: cmdGet, key: k, seq: s.seq[i], size: s.size[i]}),
				"after reopen, key %s does not hold its last acknowledged value", traffic.KeyName(uint64(k)))
		}
	}
	return nil
}

// kvPMPass replays the first kvPMOps commands of each connection's
// stream directly against a store on the simulated ADR device.
func kvPMPass(seed uint64, r *report) error {
	runtime.GC()
	env, err := newKVEnv(seed, pmem.New(pmem.Config{Size: kvDevSize}), "", false)
	if err != nil {
		return err
	}
	l0 := lockTotals(env.heap)
	start := time.Now()
	// One goroutine, the connections taking turns command by command: the
	// virtual-time schedule is a function of the seed alone.
	var ths [kvConns]alloc.Thread
	var s0 [kvConns]pmem.Stats
	var n0 [kvConns]int64
	for c := range ths {
		ths[c] = env.heap.NewThread()
		s0[c], n0[c] = ths[c].Ctx().Local(), ths[c].Ctx().Now
	}
	bad := int64(0)
	for i := 0; i < kvPMOps; i++ {
		for c, st := range env.streams {
			if !storeOK(env.store, ths[c], st.next()) {
				bad++
			}
		}
	}
	var s pmem.Stats
	var makespan int64
	for c, th := range ths {
		d := subStats(th.Ctx().Local(), s0[c])
		addStats(&s, &d)
		makespan = max(makespan, th.Ctx().Now-n0[c])
		th.Close()
	}
	r.attempted += kvPMOps * kvConns
	if bad > 0 {
		r.fail(bad, "PM pass: %d commands disagreed with the shadow model", bad)
	}
	ops := int64(kvPMOps * kvConns)
	reportPM(r, s, ops, makespan)
	l1 := lockTotals(env.heap)
	for _, g := range []string{"large", "book", "shards", "arenas"} {
		r.set("lock."+g+".wait_ns_per_op", ratio(float64(l1[g].WaitNS-l0[g].WaitNS), float64(ops)))
		r.set("lock."+g+".acquires_per_op", ratio(float64(l1[g].Acquires-l0[g].Acquires), float64(ops)))
	}
	r.note("kv-zipf: PM pass %d commands in %.3f virtual ms (%.1fs wall)", ops, float64(makespan)/1e6, time.Since(start).Seconds())
	return nil
}

// tracedKV repeats both phases on a fresh set-up with the store over a
// tracedHeap and every server conn wrapped, then derives the per-layer
// server metrics from the open-loop phase's spans.
func tracedKV(cfg runConfig, dir string, untracedOpsS float64, untracedFlushes uint64, untracedSets int64, r *report) error {
	runtime.GC()
	env, err := kvFileEnv(cfg.seed, dir, setupRepeats, true)
	if err != nil {
		return err
	}
	defer env.release()
	s, err := startServer(env)
	if err != nil {
		return err
	}
	clk := clock{base: time.Now()}
	res, err := kvPhases(s, cfg, clk, true, r)
	s.close()
	if err != nil {
		return err
	}
	r.set("trace.overhead_frac", ratio(untracedOpsS-res.opsS, untracedOpsS))
	r.note("traced flushes/SET %.4f vs %.4f untraced", ratio(float64(res.flushes), float64(res.sets)),
		ratio(float64(untracedFlushes), float64(untracedSets)))

	var spans []span
	var dropped int64
	for c, l := range res.logs {
		ct := res.cts[c]
		spans = append(spans, ct.log.spans...)
		dropped += ct.log.dropped
		for i := range l.kind {
			id := reqID(c, i)
			spans = append(spans, span{name: spRequest, parent: noParent, id: id, start: l.intended[i], end: l.recv[i]})
			if ct.start[i] != 0 {
				spans = append(spans, span{name: spServer, parent: spRequest, id: id, start: ct.start[i], end: ct.end[i]})
			}
		}
	}
	var busy, write, lat, remainder []float64
	var allocNS int64
	for _, sp := range spans {
		switch sp.name {
		case spServer:
			busy = append(busy, float64(sp.end-sp.start)/1e3)
		case spWrite:
			write = append(write, float64(sp.end-sp.start)/1e3)
		case spMalloc, spFree:
			allocNS += sp.end - sp.start
		case spRequest:
			lat = append(lat, float64(sp.end-sp.start)/1e3)
		}
	}
	// The unattributed remainder of a request is its client latency less
	// its server busy span. The reply write is left out: the client can
	// read the reply before the server's Write call returns.
	negative := 0
	for c, l := range res.logs {
		for i := range l.kind {
			if st := res.cts[c].start[i]; st != 0 {
				v := float64(l.recv[i]-l.intended[i]-(res.cts[c].end[i]-st)) / 1e3
				remainder = append(remainder, v)
				if v < 0 {
					negative++
				}
			}
		}
	}
	r.attempted += int64(len(remainder))
	if negative > 0 {
		r.fail(int64(negative), "%d requests have server time longer than their client latency", negative)
	}
	busyP50 := percentile(busy, 0.50)
	latP50 := percentile(lat, 0.50)
	rem := percentile(remainder, 0.50)
	r.setPct("nvkv.busy_us.p50", busyP50)
	r.setPct("nvkv.busy_us.p99", percentile(busy, 0.99))
	r.setPct("nvkv.write_us.p99", percentile(write, 0.99))
	r.set("nvkv.alloc_us_per_set", ratio(float64(allocNS)/1e3, float64(res.sets)))
	r.setPct("nvkv.self_us.p50", percentile(selfTimes(spans, spServer), 0.50))
	r.setPct("kv.net_queue_us.p50", rem)
	r.set("trace.attributed_frac", ratio(busyP50.Value, latP50.Value))
	r.set("trace.unattributed_us.p50", latP50.Value-busyP50.Value)
	r.set("core.busy_frac", ratio(float64(allocNS), sumSpans(busy)*1e3))
	file, err := writeSpans(cfg.outDir, fmt.Sprintf("kv-zipf-seed%d.tsv", cfg.seed), spans)
	if err != nil {
		return err
	}
	r.note("traced run: %.0f replies/s vs %.0f untraced; client p50 %.1f us, server busy p50 %.1f us, unattributed p50 %.1f us; %d spans in %s, %d dropped",
		res.opsS, untracedOpsS, latP50.Value, busyP50.Value, rem.Value, len(spans), file, dropped)
	return nil
}

func sumSpans(us []float64) (t float64) {
	for _, v := range us {
		t += v
	}
	return
}

func reqID(conn, i int) int64 { return int64(conn)<<40 | int64(i) }
