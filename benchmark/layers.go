package main

// perLayer is the traced run's table. Each entry names the layer it
// measures; README.md maps each one to the end-to-end metric and the
// workload it is predicted to move.
var perLayer = []metricDef{
	// pmem: device counters per Malloc/Free (alloc) or per command (kv),
	// from the PM pass unless named direct_.
	{"pmem.flushes_per_op", "1/op"},
	{"pmem.fences_per_op", "1/op"},
	{"pmem.flush_meta_per_op", "1/op"},
	{"pmem.flush_wal_per_op", "1/op"},
	{"pmem.flush_other_per_op", "1/op"},
	{"pmem.direct_flushes_per_op", "1/op"},
	{"pmem.direct_fences_per_op", "1/op"},
	{"pmem.reflush_ratio", "ratio"},
	{"pmem.seq_flush_share", "ratio"},
	{"pmem.ns_per_op.meta", "ns/op"},
	{"pmem.ns_per_op.wal", "ns/op"},
	{"pmem.ns_per_op.search", "ns/op"},
	{"pmem.ns_per_op.other", "ns/op"},
	{"pmem.lock_wait_ns_per_op", "ns/op"},
	{"pmem.bank_wait_ns_per_op", "ns/op"},

	// core: wall-clock call timings from the traced window, by path.
	{"core.malloc_ns.small.p50", "ns"},
	{"core.malloc_ns.small.p99", "ns"},
	{"core.malloc_ns.shard.p50", "ns"},
	{"core.malloc_ns.shard.p99", "ns"},
	{"core.malloc_ns.extent.p50", "ns"},
	{"core.malloc_ns.extent.p99", "ns"},
	{"core.free_ns.small.p50", "ns"},
	{"core.free_ns.small.p99", "ns"},
	{"core.free_ns.shard.p50", "ns"},
	{"core.free_ns.shard.p99", "ns"},
	{"core.free_ns.extent.p50", "ns"},
	{"core.free_ns.extent.p99", "ns"},
	{"core.busy_frac", "ratio"},

	// core: heap counters over the untraced window, per 1M Malloc/Free.
	{"core.slabcache_hit_ratio", "ratio"},
	{"core.slab_creates", "1/Mop"},
	{"core.morphs", "1/Mop"},
	{"core.morph_refusals", "1/Mop"},
	{"core.large_splits", "1/Mop"},
	{"core.large_coalesces", "1/Mop"},
	{"core.large_grows", "1/Mop"},

	// locks: Contention() over the PM pass; shards and arenas summed.
	{"lock.large.wait_ns_per_op", "ns/op"},
	{"lock.large.acquires_per_op", "1/op"},
	{"lock.book.wait_ns_per_op", "ns/op"},
	{"lock.book.acquires_per_op", "1/op"},
	{"lock.shards.wait_ns_per_op", "ns/op"},
	{"lock.shards.acquires_per_op", "1/op"},
	{"lock.arenas.wait_ns_per_op", "ns/op"},
	{"lock.arenas.acquires_per_op", "1/op"},

	// blog: bookkeeping-log GC over the untraced window.
	{"blog.gc_fast", "1/Mop"},
	{"blog.gc_slow", "1/Mop"},
	{"blog.active_chunks", "count"},

	// recovery: median split of recover_s.
	{"recover.core_open_s", "s"},
	{"recover.store_open_s", "s"},

	// nvkv: server-side spans of the traced open-loop phase.
	{"nvkv.busy_us.p50", "us"},
	{"nvkv.busy_us.p99", "us"},
	{"nvkv.alloc_us_per_set", "us"},
	{"nvkv.self_us.p50", "us"},
	{"nvkv.write_us.p99", "us"},
	{"nvkv.flushes_per_set", "1/op"},
	{"kv.net_queue_us.p50", "us"},
	{"kv.get_p50_us", "us"},
	{"kv.get_p99_us", "us"},
	{"kv.set_p50_us", "us"},
	{"kv.set_p99_us", "us"},

	// p99 of the latency p50_us measures (median over 100 ms slices): on
	// a VM that loses a few ms several times a second it moves by 30-40%
	// between runs of the same code, too much to gate.
	{"lat.p99_us", "us"},

	// generator validity (the benchmark's own numbers).
	{"gen.lag_us.p50", "us"},
	{"gen.lag_us.p99", "us"},
	{"gen.late_frac", "ratio"},

	// tracing accounting.
	{"trace.overhead_frac", "ratio"},
	{"trace.self_us.step.p50", "us"},
	{"trace.attributed_frac", "ratio"},
	{"trace.unattributed_us.p50", "us"},
	{"fail_frac", "ratio"},
}
