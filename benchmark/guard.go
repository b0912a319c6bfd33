package main

import (
	"fmt"
	"sync"

	"nvalloc/internal/pmem"
	"nvalloc/internal/sizeclass"
)

// Block tags: every held block carries a tag in its first and last 8
// bytes, written at Malloc and checked at Free. A block that another live
// block overlaps, or that the allocator handed out twice, loses a tag.

func tagOf(addr pmem.PAddr, gen uint32) uint64 {
	x := uint64(addr) ^ uint64(gen)<<40 ^ 0x9E3779B97F4A7C15
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return x | 1 // never zero, so a zeroed block never passes
}

func writeTags(m pmem.Mem, addr pmem.PAddr, size uint32, gen uint32) {
	t := tagOf(addr, gen)
	m.WriteU64(addr, t)
	m.WriteU64(addr+pmem.PAddr(size)-8, ^t)
}

func tagsIntact(m pmem.Mem, addr pmem.PAddr, size uint32, gen uint32) bool {
	t := tagOf(addr, gen)
	return m.ReadU64(addr) == t && m.ReadU64(addr+pmem.PAddr(size)-8) == ^t
}

// overlapIndex is the PM pass's exact overlap and free-matches-alloc
// check. alloc.Checker asks the same questions but scans its whole live
// map on every Malloc, which is O(live blocks) — about 250k blocks on
// alloc-small — so this index files each block under the pages it covers
// (4 KiB pages for small blocks, 1 MiB pages for large ones) and looks
// only at the pages a new block covers. The benchmark's tests use
// alloc.Checker as the reference it must agree with.
type overlapIndex struct {
	mu    sync.Mutex
	live  map[pmem.PAddr]uint32 // addr -> size
	small pageMap
	large pageMap
	errs  []string
	nerr  int
}

// pageMap files blocks under every 1<<shift page they touch.
type pageMap struct {
	shift uint
	m     map[uint64][]pmem.PAddr
}

func (p *pageMap) span(addr pmem.PAddr, size uint32) (uint64, uint64) {
	return uint64(addr) >> p.shift, (uint64(addr) + uint64(size) - 1) >> p.shift
}

// overlap returns a filed block overlapping [addr, addr+size), if any.
func (p *pageMap) overlap(live map[pmem.PAddr]uint32, addr pmem.PAddr, size uint32) (pmem.PAddr, bool) {
	if len(p.m) == 0 {
		return 0, false
	}
	lo, hi := p.span(addr, size)
	for pg := lo; pg <= hi; pg++ {
		for _, a := range p.m[pg] {
			if addr < a+pmem.PAddr(live[a]) && a < addr+pmem.PAddr(size) {
				return a, true
			}
		}
	}
	return 0, false
}

func (p *pageMap) add(addr pmem.PAddr, size uint32) {
	lo, hi := p.span(addr, size)
	for pg := lo; pg <= hi; pg++ {
		p.m[pg] = append(p.m[pg], addr)
	}
}

func (p *pageMap) remove(addr pmem.PAddr, size uint32) {
	lo, hi := p.span(addr, size)
	for pg := lo; pg <= hi; pg++ {
		l := p.m[pg]
		for i, a := range l {
			if a == addr {
				l[i] = l[len(l)-1]
				l = l[:len(l)-1]
				break
			}
		}
		if len(l) == 0 {
			delete(p.m, pg)
		} else {
			p.m[pg] = l
		}
	}
}

func newOverlapIndex() *overlapIndex {
	return &overlapIndex{live: make(map[pmem.PAddr]uint32),
		small: pageMap{shift: 12, m: make(map[uint64][]pmem.PAddr)},
		large: pageMap{shift: 20, m: make(map[uint64][]pmem.PAddr)}}
}

func (x *overlapIndex) fail(format string, args ...any) {
	x.nerr++
	if len(x.errs) < 8 {
		x.errs = append(x.errs, fmt.Sprintf(format, args...))
	}
}

func (x *overlapIndex) pages(size uint32) *pageMap {
	if sizeclass.IsSmall(uint64(size)) {
		return &x.small
	}
	return &x.large
}

// noteAlloc records [addr, addr+size) and reports whether it is clean.
func (x *overlapIndex) noteAlloc(addr pmem.PAddr, size uint32) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	if _, dup := x.live[addr]; dup {
		x.fail("address %#x handed out twice", addr)
		return false
	}
	ok := true
	for _, p := range []*pageMap{&x.small, &x.large} {
		if a, hit := p.overlap(x.live, addr, size); hit {
			x.fail("block [%#x,+%d) overlaps live [%#x,+%d)", addr, size, a, x.live[a])
			ok = false
			break
		}
	}
	x.live[addr] = size
	x.pages(size).add(addr, size)
	return ok
}

// noteFree drops addr and reports whether it was live.
func (x *overlapIndex) noteFree(addr pmem.PAddr) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	size, ok := x.live[addr]
	if !ok {
		x.fail("free of %#x, which is not live", addr)
		return false
	}
	delete(x.live, addr)
	x.pages(size).remove(addr, size)
	return true
}
