package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"mhdedup/internal/chunker"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
	"mhdedup/internal/trace"
)

// raw holds counter readings by name; a delta of two readings is a raw
// too, and deltas of successive windows add up.
type raw map[string]float64

func (r raw) add(o raw) {
	for k, v := range o {
		r[k] += v
	}
}

func (r raw) sub(o raw) raw {
	out := raw{}
	for k, v := range r {
		out[k] = v - o[k]
	}
	return out
}

// snapshot reads every statistic the program already exports for t:
// engine Reports (core and simdisk), the process-wide registry's latency
// histograms (core, store, client), runtime.MemStats and, over the wire,
// the shard and gateway registries, the write-ahead logs and the client's
// wire accounting. Histogram entries are summed nanoseconds ("ns.").
func snapshot(t target) raw {
	r := raw{}
	for _, e := range t.engines() {
		rep := e.Report()
		r["core.input"] += float64(rep.InputBytes)
		r["core.chunked"] += float64(rep.ChunkedBytes)
		r["core.hashed"] += float64(rep.HashedBytes)
		r["core.manifest_loads"] += float64(rep.ManifestLoads)
		r["core.hhr_ops"] += float64(rep.HHROps)
		r["core.dup_bytes"] += float64(rep.DupBytes)
		r["core.metadata"] += float64(rep.MetadataBytes)
		r["disk.accesses"] += float64(rep.Disk.Accesses())
		r["disk.written"] += float64(rep.Disk.BytesWritten.Total())
	}
	addHistograms(r, metrics.Default)
	r["client.reconnects"] = float64(metrics.Counter("client.reconnects").Load())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r["mem.alloc"], r["mem.gc"] = float64(ms.TotalAlloc), float64(ms.NumGC)

	nt, ok := t.(*netTarget)
	if !ok {
		return r
	}
	for _, reg := range nt.regs {
		for k, v := range reg.Snapshot() {
			r[k] += float64(v)
		}
		addHistograms(r, reg)
	}
	if nt.gwReg != nil {
		for k, v := range nt.gwReg.Snapshot() {
			r[k] += float64(v)
		}
	}
	for _, d := range nt.durs {
		st := d.WAL().Stats()
		r["wal.syncs"] += float64(st.Syncs)
		r["wal.records"] += float64(st.DurableRecords + st.PendingRecords)
		r["wal.bytes"] += float64(st.DurableBytes + st.PendingBytes)
	}
	cs := nt.clientStats()
	r["client.offered"] = float64(cs.ChunksOffered)
	r["client.sent"] = float64(cs.ChunksSent)
	r["client.wire_out"] = float64(cs.WireBytesOut)
	return r
}

func addHistograms(r raw, reg *metrics.Registry) {
	for k, h := range reg.Histograms() {
		r["ns."+k] += float64(h.Sum)
	}
}

// diskReads is the number of disk reads t's disks have served.
func diskReads(t target) int64 {
	var n int64
	for _, d := range disks(t) {
		n += d.Counters().Reads.Total()
	}
	return n
}

// probes are direct calls into chunker, hashutil and store, made by the
// traced run after its timed phase.
type probes struct {
	// ranges are the ranged restores of restore-seek's loop, or of an
	// ingest workload's last pass, in order.
	ranges []probeRange

	rabinNS, sha1NS      float64 // per byte
	detectMS, verifierMS float64
	rangeMS, recipeReads float64 // medians over the probed ranges
	callerRangeMS        float64 // the caller's median over the same ranges
	coalesce             float64
}

type probeRange struct {
	name      string
	off, size int64
	ms        float64 // as the workload's caller timed it
}

// probeReps is how many times each probe repeats; the median is kept.
// maxProbeRanges bounds how many of the run's ranges are probed again.
const (
	probeReps      = 3
	maxProbeRanges = 50
)

// probeCompute times the chunker and SHA-1 over the run's first image
// held in memory: the compute floor of ingest.
func (b *bench) probeCompute(f trace.FileInfo) error {
	r, err := b.cur.ds.Open(f.Name)
	if err != nil {
		return err
	}
	buf, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	var chunks []chunker.Chunk
	var rabin, sha []float64
	for i := 0; i < probeReps; i++ {
		id := b.tr.begin("probe.rabin", 0, int64(i))
		t0 := time.Now()
		ch, err := chunker.NewCDC(bytes.NewReader(buf), chunker.Params{ECS: 4096})
		if err != nil {
			return err
		}
		chunks = chunks[:0]
		for {
			c, err := ch.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			chunks = append(chunks, c)
		}
		rabin = append(rabin, float64(time.Since(t0).Nanoseconds())/float64(len(buf)))
		b.tr.end(id)

		id = b.tr.begin("probe.sha1", 0, int64(i))
		t0 = time.Now()
		for _, c := range chunks {
			hashutil.SumBytes(c.Data)
		}
		sha = append(sha, float64(time.Since(t0).Nanoseconds())/float64(len(buf)))
		b.tr.end(id)
	}
	b.probes.rabinNS, b.probes.sha1NS = median(rabin), median(sha)
	return nil
}

// probeStore calls store.DetectFormat, Store.RestoreRange (on the run's
// own ranges), store.NewVerifier and Store.RestoreFileStats directly on
// the disks the system served from, device delay included.
func (b *bench) probeStore(t target, files []trace.FileInfo) error {
	ds := disks(t)
	holder := func(name string) *simdisk.Disk {
		for _, d := range ds {
			if d.Exists(simdisk.FileManifest, name) {
				return d
			}
		}
		return nil
	}
	var detect, verifier []float64
	format := store.FormatMHD
	for i := 0; i < probeReps; i++ {
		id := b.tr.begin("probe.detect_format", 0, int64(i))
		t0 := time.Now()
		f, ok := store.DetectFormat(ds[0])
		detect = append(detect, since(t0)*1e3)
		b.tr.end(id)
		if ok {
			format = f
		}
	}
	for i := 0; i < probeReps; i++ {
		id := b.tr.begin("probe.new_verifier", 0, int64(i))
		t0 := time.Now()
		store.NewVerifier(store.New(ds[0], format), store.VerifyOpts{})
		verifier = append(verifier, since(t0)*1e3)
		b.tr.end(id)
	}
	b.probes.detectMS, b.probes.verifierMS = median(detect), median(verifier)

	var rangeMS, reads, callerMS []float64
	n := min(len(b.probes.ranges), maxProbeRanges)
	for i, p := range b.probes.ranges[:n] {
		callerMS = append(callerMS, p.ms)
		d := holder(p.name)
		if d == nil {
			return fmt.Errorf("probe: no disk holds %s", p.name)
		}
		id := b.tr.begin("probe.range", 0, int64(i))
		t0 := time.Now()
		rs, err := store.New(d, format).RestoreRange(p.name, p.off, p.size, io.Discard, restoreOpts)
		rangeMS = append(rangeMS, since(t0)*1e3)
		b.tr.end(id)
		if err != nil {
			return fmt.Errorf("probe range %s: %w", p.name, err)
		}
		reads = append(reads, float64(rs.RecipeReads))
	}
	b.probes.rangeMS, b.probes.recipeReads = median(rangeMS), median(reads)
	b.probes.callerRangeMS = median(callerMS)

	d := holder(files[0].Name)
	if d == nil {
		return fmt.Errorf("probe: no disk holds %s", files[0].Name)
	}
	rs, err := store.New(d, format).RestoreFileStats(files[0].Name, io.Discard, restoreOpts)
	if err != nil {
		return fmt.Errorf("probe restore %s: %w", files[0].Name, err)
	}
	b.probes.coalesce = rs.CoalesceRatio
	return nil
}

// layerMetrics derives the per-layer table from the spans, the counter
// deltas and the probes. A layer the workload does not reach reads 0.
func (b *bench) layerMetrics() map[string]metric {
	L, R := b.lay, b.lay
	if b.cfg.workload != "restore-seek" {
		R = b.chk
	}
	in := L["input"]
	gb := in / 1e9
	readS, putS := b.tr.total("trace.read"), b.tr.total("put")
	local := b.cfg.workload == "ingest-local"
	var corePut, clientPut, rangeOverhead float64
	if local {
		corePut = putS - readS
	} else {
		clientPut = putS - readS
		rangeOverhead = b.probes.callerRangeMS - b.probes.rangeMS
	}
	m := map[string]metric{}
	set := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{Value: v, Unit: unit}
	}
	ns := func(k string) float64 { return L["ns."+k] / 1e9 }

	set("trace.read_s", "s", readS)
	set("trace.read_share", "ratio", ratio(readS, putS))
	set("trace.spans", "count", float64(len(b.tr.spans)))

	set("chunker.rabin_ns_per_byte", "ns/B", b.probes.rabinNS)
	set("hashutil.sha1_ns_per_byte", "ns/B", b.probes.sha1NS)

	set("core.put_self_s", "s", corePut)
	set("core.hashed_per_chunked", "ratio", ratio(L["core.hashed"], L["core.chunked"]))
	set("core.chunked_per_input", "ratio", ratio(L["core.chunked"], L["core.input"]))
	set("core.manifest_loads_per_gb", "1/GB", ratio(L["core.manifest_loads"], gb))
	set("core.hhr_ops_per_gb", "1/GB", ratio(L["core.hhr_ops"], gb))
	set("core.metadata_bytes_per_gb", "B/GB", ratio(L["core.metadata"], gb))
	set("core.dup_bytes_fraction", "ratio", ratio(L["core.dup_bytes"], L["core.input"]))
	set("core.chunk_busy_s", "s", ns("core.chunk_ns"))
	set("core.lookup_busy_s", "s", ns("core.lookup_ns"))
	set("core.hook_probe_busy_s", "s", ns("core.hook_probe_ns"))
	set("core.manifest_load_busy_s", "s", ns("core.manifest_load_ns"))

	set("store.container_write_busy_s", "s", ns("store.container_write_ns"))
	set("store.detect_format_ms", "ms", b.probes.detectMS)
	set("store.range_ms", "ms", b.probes.rangeMS)
	set("store.recipe_reads_per_range", "count", b.probes.recipeReads)
	set("store.new_verifier_ms", "ms", b.probes.verifierMS)
	set("store.coalesce_ratio", "ratio", b.probes.coalesce)

	set("simdisk.accesses_per_gb", "1/GB", ratio(L["disk.accesses"], gb))
	set("simdisk.bytes_written_per_input", "ratio", ratio(L["disk.written"], in))
	set("simdisk.reads_per_range", "count", mean(b.m.rangeReads))

	set("wal.syncs", "count", L["wal.syncs"])
	set("wal.records_per_sync", "ratio", ratio(L["wal.records"], L["wal.syncs"]))
	set("wal.bytes_per_input", "ratio", ratio(L["wal.bytes"], in))

	set("client.put_self_s", "s", clientPut)
	set("client.offer_rtt_busy_s", "s", ns("client.offer_rtt_ns"))
	set("client.chunks_sent_per_offered", "ratio", ratio(L["client.sent"], L["client.offered"]))
	set("client.reconnects", "count", L["client.reconnects"]+b.chk["client.reconnects"])
	set("wire.bytes_out_per_input", "ratio", ratio(L["client.wire_out"], in))

	set("server.apply_busy_s", "s", ns("server.apply_ns"))
	set("server.chunk_data_busy_s", "s", ns("server.frame.chunk_data_ns"))
	set("server.needed_per_offered", "ratio", ratio(L["server.chunks.needed"], L["server.chunks.offered"]))
	set("server.cache_hits_per_offered", "ratio", ratio(L["server.chunks.cache_hits"], L["server.chunks.offered"]))
	set("server.commit_busy_s", "s", ns("server.commit_ns"))
	set("server.restore_busy_s", "s", R["ns.server.restore_ns"]/1e9)
	set("server.range_overhead_ms", "ms", rangeOverhead)

	set("cluster.peer_routed_fraction", "ratio",
		ratio(L["gateway.chunks.peer_routed"], L["gateway.chunks.peer_routed"]+L["gateway.chunks.from_client"]))
	set("cluster.wire_bytes_per_input", "ratio", ratio(L["gateway.wire.bytes_in"]+L["gateway.wire.bytes_out"], in))
	set("cluster.peer_seeded", "count", L["gateway.chunks.peer_seeded"])
	set("cluster.restore_failovers", "count", R["gateway.restore.failovers"])

	set("runtime.alloc_bytes_per_input", "ratio", ratio(L["mem.alloc"], in))
	set("runtime.gc_cycles_per_gb", "1/GB", ratio(L["mem.gc"], gb))

	// The end-to-end timings as this traced run measured them: their
	// difference from an untraced run of the same seed is the tracing
	// overhead.
	e2e := b.endToEnd()
	for _, k := range []string{"ingest_mb_s", "ingest_cpu_s_per_gb", "range_ms_p50", "restore_mb_s"} {
		set("traced."+k, e2e[k].Unit, e2e[k].Value)
	}
	return m
}

// endToEnd is the untraced run's metric set.
func (b *bench) endToEnd() map[string]metric {
	return map[string]metric{
		"ingest_mb_s":         {median(b.m.ingestMBs), "MiB/s"},
		"ingest_cpu_s_per_gb": {median(b.m.ingestCPU), "s/GB"},
		"real_der":            {median(b.m.realDER), "ratio"},
		"range_ms_p50":        {percentile(b.m.rangeMS, 0.50), "ms"},
		"range_ms_p95":        {percentile(b.m.rangeMS, 0.95), "ms"},
		"restore_mb_s":        {median(b.m.restoreMBs), "MiB/s"},
		"setup_s":             {median(b.m.setupS), "s"},
		"peak_rss_mb":         {peakRSSMB(), "MiB"},
	}
}

// logSummary prints the sample counts and spreads behind the metrics.
func (b *bench) logSummary(w io.Writer) {
	fmt.Fprintf(w, "perfbench: %s seed %d: %d ops attempted, %d failed\n", b.cfg.workload, b.cfg.seed, b.m.attempted, b.m.failed)
	spread := func(name string, v []float64) {
		fmt.Fprintf(w, "perfbench:   %-20s n=%-4d min %.4g  p50 %.4g  p95 %.4g  max %.4g\n",
			name, len(v), percentile(v, 0), median(v), percentile(v, 0.95), percentile(v, 1))
	}
	spread("setup_s", b.m.setupS)
	spread("ingest_mb_s", b.m.ingestMBs)
	spread("ingest_cpu_s_per_gb", b.m.ingestCPU)
	spread("range_ms", b.m.rangeMS)
	spread("restore_mb_s", b.m.restoreMBs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile is the nearest-rank percentile of v (0 for no samples).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

// cpuSeconds is the process's user+system CPU time so far; it covers the
// in-process shards and gateway as well as the caller.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set in MiB (ru_maxrss is KiB
// on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
