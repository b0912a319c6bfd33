package main

import (
	"math/rand/v2"
	"sort"
)

// sizeMix is a weighted set of request sizes.
type sizeMix struct {
	sizes []uint32
	cum   []uint64 // running weight totals
}

// mixOf builds a mix from (size, weight) pairs.
func mixOf(pairs ...uint32) sizeMix {
	var m sizeMix
	var total uint64
	for i := 0; i < len(pairs); i += 2 {
		total += uint64(pairs[i+1])
		m.sizes = append(m.sizes, pairs[i])
		m.cum = append(m.cum, total)
	}
	return m
}

// pick maps one raw 64-bit draw onto the mix. It always consumes exactly
// one draw, whatever the mix, so switching mixes mid-stream leaves the
// rest of the stream (slots, remote choices) unchanged.
func (m sizeMix) pick(u uint64) uint32 {
	x := (u >> 32) * m.cum[len(m.cum)-1] >> 32
	return m.sizes[sort.Search(len(m.cum), func(i int) bool { return m.cum[i] > x })]
}

// allocSpec describes one allocator workload.
type allocSpec struct {
	name        string
	slots       int     // blocks each worker holds (the live set)
	mix         sizeMix // sizes before the shift (and for warm-up)
	shifted     sizeMix // sizes after the halfway shift; zero value = no shift
	remoteEvery uint64  // 1 in remoteEvery frees is handed to the other worker
	purgeEvery  int     // every purgeEvery steps, drop most held blocks; 0 = never
	purgeKeep   uint64  // ... keeping purgeKeep in 100 of them
	devSize     uint64
	pmSteps     int // steps per worker in the PM pass
}

// op is one step of a worker: free the block in slot (locally, or by
// handing it to the other worker when remote) and malloc size bytes into
// it. purge precedes the step with a purge of the worker's slots.
type op struct {
	slot   int
	size   uint32
	remote bool
	purge  bool
}

// stream is one worker's seeded op stream. Everything the program sees
// derives from (seed, worker), so two passes over the same stream issue
// the same requests in the same order.
type stream struct {
	spec *allocSpec
	rng  *rand.Rand
	step int
}

func newStream(spec *allocSpec, seed uint64, worker int) *stream {
	return &stream{spec: spec, rng: rand.New(rand.NewPCG(seed, 0x6a09e667f3bcc909^uint64(worker)))}
}

func (s *stream) index(n int) int { return int((s.rng.Uint64() >> 32) * uint64(n) >> 32) }

// warm returns the size of the next warm-up allocation.
func (s *stream) warm() uint32 { return s.spec.mix.pick(s.rng.Uint64()) }

// next returns the next op; shifted selects the post-shift size mix.
func (s *stream) next(shifted bool) op {
	o := op{slot: s.index(s.spec.slots)}
	o.remote = s.rng.Uint64()%s.spec.remoteEvery == 0
	m := s.spec.mix
	if shifted && s.spec.shifted.cum != nil {
		m = s.spec.shifted
	}
	o.size = m.pick(s.rng.Uint64())
	s.step++
	o.purge = s.spec.purgeEvery > 0 && s.step%s.spec.purgeEvery == 0
	return o
}

// drop decides, during a purge, whether the next held block goes.
func (s *stream) drop() bool { return s.rng.Uint64()%100 >= s.spec.purgeKeep }

const (
	kib = 1 << 10
	mib = 1 << 20
)

// allocSmall: Larson-style slot replacement over ~48 MiB of 16 B-2 KiB
// blocks (mean ~197 B, ~256k live blocks), far beyond the tcache
// magazines and the CPU caches. Halfway through, the mix shifts toward
// larger classes (Fragbench-style), which empties small-class slabs for
// morphing to reclaim.
var allocSmall = allocSpec{
	name:  "alloc-small",
	slots: 128 << 10,
	mix: mixOf(16, 10, 32, 14, 48, 10, 64, 14, 96, 10, 128, 10, 192, 8,
		256, 8, 384, 5, 512, 4, 768, 3, 1024, 2, 1536, 1, 2048, 1),
	shifted: mixOf(16, 1, 32, 2, 48, 2, 64, 4, 96, 6, 128, 8, 192, 12,
		256, 14, 384, 14, 512, 12, 768, 10, 1024, 8, 1536, 4, 2048, 3),
	remoteEvery: 8,
	devSize:     320 * mib,
	pmSteps:     256 << 10,
}

// allocLarge: the same load loop over 20 KiB-2 MiB blocks. 80% of requests
// are <= 512 KiB (extent shard pools); 20% are larger and go to the
// global extent allocator and the bookkeeping log. ~128 MiB live at the
// peak, with a DBMStest-style purge of 90% of each worker's blocks every
// 1,000 steps.
var allocLarge = allocSpec{
	name:  "alloc-large",
	slots: 208,
	mix: mixOf(20*kib, 12, 32*kib, 12, 48*kib, 10, 64*kib, 10, 96*kib, 9,
		128*kib, 8, 192*kib, 7, 256*kib, 6, 384*kib, 3, 512*kib, 3,
		768*kib, 8, 1024*kib, 6, 1536*kib, 4, 2048*kib, 2),
	remoteEvery: 8,
	purgeEvery:  1000,
	purgeKeep:   10,
	devSize:     1024 * mib,
	pmSteps:     384 << 10,
}
