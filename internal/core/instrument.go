package core

import "mhdedup/internal/metrics"

// Hot-path latency histograms, resolved once against the process-wide
// metrics.Default registry (stable pointers — see metrics.GetHistogram).
// The engine records into Default rather than a plumbed-through registry
// on purpose: every embedder (dedupd, the CLIs, bench) shares one
// engine-latency view, and the per-observation cost is four atomic adds,
// cheap enough to leave on unconditionally.
//
// All values are nanoseconds.
var (
	// hChunkNS is the time to acquire the next hashed chunk — the
	// chunker boundary scan plus SHA-1, or the pipeline hand-off wait
	// when HashWorkers > 0. Pre-cut chunks (PutChunksContext) are not
	// observed: the engine does no chunking for them.
	hChunkNS = metrics.GetHistogram("core.chunk_ns")
	// hLookupNS is one flat cache-index lookup (hash → cached manifest).
	hLookupNS = metrics.GetHistogram("core.lookup_ns")
	// hHookProbeNS is one duplicate-detection probe on the miss path:
	// sparse-index get (SI-MHD) or bloom + on-disk hook existence check
	// plus hook read (MHD).
	hHookProbeNS = metrics.GetHistogram("core.hook_probe_ns")
	// hManifestLoadNS is one manifest fetched from disk into the cache
	// (cache hits are not recorded — they cost a map lookup).
	hManifestLoadNS = metrics.GetHistogram("core.manifest_load_ns")
)
