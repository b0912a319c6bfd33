package main

import (
	"net"
	"sync/atomic"

	"nvalloc/internal/alloc"
	"nvalloc/internal/pmem"
)

// The traced kv run hands nvkv a tracedHeap and serves each connection
// through a tracedConn. One connection's server goroutine calls both its
// conn and its allocator thread, so they share one connTrace and need no
// locking.

// reqOffsets is a client connection's cumulative end offset of every
// request written, published before the bytes are flushed, so the server
// side can tell which requests a Read has completed.
type reqOffsets struct {
	end []int64
	n   atomic.Int64
}

func newReqOffsets(n int) *reqOffsets { return &reqOffsets{end: make([]int64, n)} }

func (o *reqOffsets) publish(i int, off int64) {
	o.end[i] = off
	o.n.Store(int64(i + 1))
}

// connTrace records one server connection's spans. With offs nil it
// still reads the clock at every boundary, so a phase traced without
// per-request records pays the same overhead.
type connTrace struct {
	clk    clock
	conn   int
	offs   *reqOffsets
	linked chan struct{}

	readOff    int64
	next, open int     // first request not yet read in full / not yet replied
	start, end []int64 // by request: Read return, reply Write call
	log        spanLog
}

func newConnTrace(clk clock, conn int, offs *reqOffsets, n int) *connTrace {
	return &connTrace{clk: clk, conn: conn, offs: offs, start: make([]int64, n), end: make([]int64, n)}
}

func (ct *connTrace) onRead(n int, t int64) {
	ct.readOff += int64(n)
	if ct.offs == nil {
		return
	}
	for pub := int(ct.offs.n.Load()); ct.next < pub && ct.offs.end[ct.next] <= ct.readOff; ct.next++ {
		ct.start[ct.next] = t
	}
}

// onWrite closes the server span of every request read but not yet
// replied to: ServeConn writes only when its read buffer is empty, so one
// Write carries the replies of a whole batch.
func (ct *connTrace) onWrite(t0, t1 int64) {
	if ct.offs == nil || ct.open == ct.next {
		return
	}
	for i := ct.open; i < ct.next; i++ {
		ct.end[i] = t0
	}
	ct.log.add(span{name: spWrite, parent: spRequest, id: reqID(ct.conn, ct.open), start: t0, end: t1})
	ct.open = ct.next
}

// onAlloc records a Malloc/Free as a child of the oldest request not yet
// replied to (exact when requests arrive one at a time, as they mostly do
// in the open-loop phase).
func (ct *connTrace) onAlloc(name uint8, t0, t1 int64) {
	if ct.offs == nil || ct.open == ct.next {
		return
	}
	ct.log.add(span{name: name, parent: spServer, id: reqID(ct.conn, ct.open), start: t0, end: t1})
}

type tracedConn struct {
	net.Conn
	ct *connTrace
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.ct.onRead(n, c.ct.clk.now())
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	t0 := c.ct.clk.now()
	n, err := c.Conn.Write(p)
	c.ct.onWrite(t0, c.ct.clk.now())
	return n, err
}

// tracedHeap gives the thread of each linked connection a tracer.
type tracedHeap struct {
	alloc.Heap
	link chan *connTrace
}

func (h *tracedHeap) NewThread() alloc.Thread {
	th := h.Heap.NewThread()
	select {
	case ct := <-h.link:
		close(ct.linked)
		return &tracedThread{Thread: th, ct: ct}
	default:
		return th
	}
}

// LeaseOverhead forwards the optional accounting nvkv's STATS asks for.
func (h *tracedHeap) LeaseOverhead() uint64 {
	if lo, ok := h.Heap.(interface{ LeaseOverhead() uint64 }); ok {
		return lo.LeaseOverhead()
	}
	return 0
}

type tracedThread struct {
	alloc.Thread
	ct *connTrace
}

func (t *tracedThread) Malloc(size uint64) (pmem.PAddr, error) {
	t0 := t.ct.clk.now()
	a, err := t.Thread.Malloc(size)
	t.ct.onAlloc(spMalloc, t0, t.ct.clk.now())
	return a, err
}

func (t *tracedThread) Free(addr pmem.PAddr) error {
	t0 := t.ct.clk.now()
	err := t.Thread.Free(addr)
	t.ct.onAlloc(spFree, t0, t.ct.clk.now())
	return err
}

// Flush forwards alloc.Flusher: nvkv drains batched remote frees through it.
func (t *tracedThread) Flush() {
	if f, ok := t.Thread.(alloc.Flusher); ok {
		f.Flush()
	}
}
