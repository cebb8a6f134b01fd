package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/trace"
)

// config sizes one workload. defaultConfig holds the benchmark's sizes;
// the tests shrink them.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string

	// The generator's daily whole-image snapshots, machine-major: the
	// ingest corpus, or restore-seek's base store.
	machines, days int
	snapshot       int64
	// Ingest passes cycle through corpora differently seeded corpora of
	// that shape, so a run's medians cover more content than one corpus
	// and every corpus is ingested at least twice.
	corpora int
	// putDays more days per machine are put during restore-seek's loop.
	putDays int

	// After every ingest pass, the pass's images are restored and
	// passRanges ranged restores are made; restore-seek makes both kinds
	// in its timed loop instead.
	passRanges int
	// setups is how many times restore-seek builds its base store.
	setups int
	// readDelay is restore-seek's simulated device wait per disk read.
	readDelay time.Duration
	// In restore-seek's loop every putEvery-th operation puts a new
	// snapshot and every restoreEvery-th restores a whole image; the rest
	// are ranged restores of rangeMin..rangeMax bytes. A fixed schedule
	// keeps the store's growth over the loop the same from run to run.
	putEvery, restoreEvery int
	rangeMin, rangeMax     int64

	// tamper, when set, is applied to every disk of the system under test
	// before its outputs are checked (tests corrupt bytes with it).
	tamper func([]*simdisk.Disk)
}

func defaultConfig(workload string) (config, error) {
	c := config{
		workload:     workload,
		corpora:      3,
		snapshot:     8 << 20,
		passRanges:   400,
		setups:       4,
		readDelay:    150 * time.Microsecond,
		putEvery:     40,
		restoreEvery: 25,
		rangeMin:     64 << 10,
		rangeMax:     1 << 20,
	}
	switch workload {
	case "ingest-local":
		c.machines, c.days = 6, 3
	case "ingest-cluster-r2":
		c.machines, c.days, c.passRanges = 3, 3, 320
	case "restore-seek":
		c.machines, c.days, c.putDays, c.corpora = 8, 2, 3, 1
	default:
		return c, fmt.Errorf("unknown -workload %q (want ingest-local, ingest-cluster-r2 or restore-seek)", workload)
	}
	return c, nil
}

// bench is one run's state.
type bench struct {
	cfg  config
	dir  string
	tr   *tracer
	rng  *rand.Rand
	corp []*corpus
	cur  *corpus // the corpus being ingested and read
	// out receives each restore; want holds the generator's bytes of a
	// range, and ref those of the whole file refName while an ingest
	// pass's ranges of it are checked. All are reused so checking
	// allocates nothing per operation.
	out     bytes.Buffer
	want    []byte
	ref     []byte
	refName string

	m measures
	// lay accumulates counter deltas over every ingest and restore-seek's
	// timed loop; chk over an ingest workload's check phase.
	lay, chk raw
	probes   probes
}

// measures are the end-to-end samples.
type measures struct {
	attempted, failed int64
	setupS            []float64
	ingestMBs         []float64
	ingestCPU         []float64 // s per GB
	realDER           []float64 // one per ingest
	rangeMS           []float64
	rangeReads        []float64 // disk reads per ranged restore (traced)
	restoreMBs        []float64 // one per restore round
	// restoreBytes and restoreS accumulate the current round.
	restoreBytes int64
	restoreS     float64
}

// corpus is one seeded generator and what the run learned about it.
type corpus struct {
	ds  *trace.Dataset
	ref map[string]hashutil.Sum // content SHA-1 per file, filled on demand
	// der and chunks are the store state of the corpus's first ingest;
	// every later ingest of it must repeat them exactly.
	der    float64
	chunks int64
}

// addIngest records one ingest_mb_s and ingest_cpu_s_per_gb sample.
func (m *measures) addIngest(bytes int64, wall, cpu float64) {
	m.ingestMBs = append(m.ingestMBs, float64(bytes)/(1<<20)/wall)
	m.ingestCPU = append(m.ingestCPU, cpu/(float64(bytes)/1e9))
}

// buildInputs creates the seeded generators: corpora of machines ×
// (days+putDays) daily images each. The program only ever sees the bytes
// they stream.
func (b *bench) buildInputs() error {
	for k := 0; k < b.cfg.corpora; k++ {
		cfg := trace.Default()
		cfg.Machines = b.cfg.machines
		cfg.Days = b.cfg.days + b.cfg.putDays
		cfg.SnapshotBytes = b.cfg.snapshot
		cfg.Seed = b.cfg.seed*int64(b.cfg.corpora) + int64(k)
		ds, err := trace.New(cfg)
		if err != nil {
			return err
		}
		b.corp = append(b.corp, &corpus{ds: ds, ref: make(map[string]hashutil.Sum)})
	}
	b.cur = b.corp[0]
	b.lay, b.chk = raw{}, raw{}
	b.rng = rand.New(rand.NewSource(b.cfg.seed))
	return nil
}

// files returns the images of days [from, to) of every machine, in the
// generator's machine-major order.
func (b *bench) files(from, to int) []trace.FileInfo {
	var out []trace.FileInfo
	for _, f := range b.cur.ds.Files() {
		if f.Day >= from && f.Day < to {
			out = append(out, f)
		}
	}
	return out
}

// expected returns the generator's SHA-1 of a file's content.
func (b *bench) expected(name string) (hashutil.Sum, error) {
	if s, ok := b.cur.ref[name]; ok {
		return s, nil
	}
	r, err := b.cur.ds.Open(name)
	if err != nil {
		return hashutil.Sum{}, err
	}
	h := hashutil.NewHasher()
	if _, err := io.Copy(h, r); err != nil {
		return hashutil.Sum{}, err
	}
	b.cur.ref[name] = h.Sum()
	return b.cur.ref[name], nil
}

// expectedRange returns the generator's bytes [off, off+n) of a file,
// valid until the next call. The bytes of the file holdRef holds are
// sliced rather than generated again from the file's start.
func (b *bench) expectedRange(name string, off, n int64) ([]byte, error) {
	if name == b.refName {
		return b.ref[off : off+n], nil
	}
	r, err := b.cur.ds.Open(name)
	if err != nil {
		return nil, err
	}
	if _, err := io.CopyN(io.Discard, r, off); err != nil {
		return nil, err
	}
	if int64(cap(b.want)) < n {
		b.want = make([]byte, n)
	}
	_, err = io.ReadFull(r, b.want[:n])
	return b.want[:n], err
}

// holdRef generates the whole of f into ref for expectedRange.
func (b *bench) holdRef(f trace.FileInfo) error {
	b.refName = ""
	r, err := b.cur.ds.Open(f.Name)
	if err != nil {
		return err
	}
	if int64(cap(b.ref)) < f.Size {
		b.ref = make([]byte, f.Size)
	}
	b.ref = b.ref[:f.Size]
	if _, err := io.ReadFull(r, b.ref); err != nil {
		return err
	}
	b.refName = f.Name
	return nil
}

// put ingests one file as one timed operation under parent.
func (b *bench) put(t target, f trace.FileInfo, parent int, op int64) error {
	r, err := b.cur.ds.Open(f.Name)
	if err != nil {
		return err
	}
	b.m.attempted++
	id := b.tr.begin("put", parent, op)
	err = t.put(f.Name, b.tr.reader(r, id, op))
	b.tr.end(id)
	if err != nil {
		b.m.failed++
		return fmt.Errorf("put %s: %w", f.Name, err)
	}
	return nil
}

// ingest puts files into t as one closed-loop ingest session and records
// its throughput and CPU cost.
func (b *bench) ingest(t target, files []trace.FileInfo, op int64) error {
	before := snapshot(t)
	cpu0, t0 := cpuSeconds(), time.Now()
	id := b.tr.begin("ingest", 0, op)
	var bytes int64
	for i, f := range files {
		if err := b.put(t, f, id, op<<20|int64(i)); err != nil {
			return err
		}
		bytes += f.Size
	}
	err := t.finish()
	b.tr.end(id)
	wall, cpu := since(t0), cpuSeconds()-cpu0
	if err != nil {
		b.m.attempted++
		b.m.failed++
		return fmt.Errorf("finish ingest: %w", err)
	}
	b.m.addIngest(bytes, wall, cpu)
	b.lay.add(snapshot(t).sub(before))
	b.lay["input"] += float64(bytes)
	return nil
}

// storeState returns the real DER of everything t stores for logical
// input bytes, and its chunk count — together the run's determinism
// witness: both must repeat exactly for the same seed.
func storeState(t target, logical int64) (der float64, chunks int64) {
	var physical int64
	for _, e := range t.engines() {
		rep := e.Report()
		physical += rep.StoredDataBytes + rep.MetadataBytes
		chunks += rep.ChunksIn
	}
	if physical > 0 {
		der = float64(logical) / float64(physical)
	}
	return der, chunks
}

// witness records the store state of the current corpus's first ingest
// and fails any later ingest of it that differs.
func (b *bench) witness(t target, logical int64) error {
	der, chunks := storeState(t, logical)
	b.m.realDER = append(b.m.realDER, der)
	c := b.cur
	if c.chunks == 0 {
		c.der, c.chunks = der, chunks
		return nil
	}
	if der != c.der || chunks != c.chunks {
		return fmt.Errorf("same input, different store: real DER %v / %d chunks, first %v / %d",
			der, chunks, c.der, c.chunks)
	}
	return nil
}

func maxSize(files []trace.FileInfo) int64 {
	var n int64
	for _, f := range files {
		n = max(n, f.Size)
	}
	return n
}

func sumSize(files []trace.FileInfo) int64 {
	var n int64
	for _, f := range files {
		n += f.Size
	}
	return n
}

// newTarget builds the system under test of an ingest workload, storing
// under dir if it stores on disk.
func (b *bench) newTarget(dir string) (target, error) {
	if b.cfg.workload == "ingest-local" {
		return newLocalTarget()
	}
	return startNet(dir, 3, 2)
}

// closeTarget stops t and deletes what it stored under dir.
func closeTarget(t target, dir string) error {
	return errors.Join(t.close(), os.RemoveAll(dir))
}

// runIngest repeats fresh ingest passes over the run's corpora until the
// timed phase is spent. Every pass's store is then read back and
// checked, so the read-side samples spread over the run as the ingest
// samples do.
func (b *bench) runIngest() error {
	if err := b.buildInputs(); err != nil {
		return err
	}
	start := time.Now()
	for pass := 0; ; pass++ {
		b.cur = b.corp[pass%len(b.corp)]
		files := b.files(0, b.cfg.days)
		logical := sumSize(files)
		dir := filepath.Join(b.dir, fmt.Sprintf("pass%d", pass))
		t0 := time.Now()
		t, err := b.newTarget(dir)
		if err != nil {
			return err
		}
		b.m.setupS = append(b.m.setupS, since(t0))
		passStart := time.Now()
		err = b.ingest(t, files, int64(pass))
		if err == nil {
			err = b.witness(t, logical)
		}
		if err == nil {
			err = b.checkIngest(t, files, int64(pass))
		}
		// Start another pass only if one more fits in the timed phase,
		// once every corpus has been ingested twice.
		last := err != nil || pass >= 2*len(b.corp)-1 && since(start)+since(passStart) > b.cfg.seconds
		if last && err == nil && b.cfg.trace {
			err = b.probeStore(t, files)
			if err == nil {
				err = b.probeCompute(files[0])
			}
		}
		if err := errors.Join(err, closeTarget(t, dir)); err != nil || last {
			return err
		}
		// Drop the closed pass's store now, outside the timed phase, so
		// its garbage neither inflates the peak RSS nor lands in a later
		// pass's collection.
		runtime.GC()
	}
}

// checkIngest restores every file of t and compares each with the
// generator's bytes, then makes seeded ranged restores and compares
// theirs. The restores are timed: they are the ingest workloads'
// restore_mb_s and range_ms samples.
func (b *bench) checkIngest(t target, files []trace.FileInfo, pass int64) error {
	if b.cfg.tamper != nil {
		b.cfg.tamper(disks(t))
	}
	b.probes.ranges = b.probes.ranges[:0]
	before := snapshot(t)
	// Each batch starts from a collected heap and a buffer already grown
	// to an image, so neither the ingest's garbage nor buffer growth is
	// timed.
	b.out.Grow(int(maxSize(files)))
	runtime.GC()
	for i, f := range files {
		if err := b.restore(t, f, pass<<20|int64(i)); err != nil {
			return err
		}
	}
	b.endRestoreRound()
	// The ranges are made file by file, each file's against its bytes
	// generated once, so checking a range costs a compare, not a
	// regeneration of the file up to its offset.
	for i := 0; i < b.cfg.passRanges; i++ {
		f := files[i*len(files)/b.cfg.passRanges]
		if f.Name != b.refName {
			if err := b.holdRef(f); err != nil {
				return err
			}
		}
		if err := b.rangeOp(t, f, pass<<20|int64(i)); err != nil {
			return err
		}
	}
	b.refName = ""
	b.chk.add(snapshot(t).sub(before))
	return nil
}

// restore rebuilds one whole image, verified, and checks its SHA-1.
func (b *bench) restore(t target, f trace.FileInfo, op int64) error {
	want, err := b.expected(f.Name)
	if err != nil {
		return err
	}
	// The image lands in a reused buffer and is hashed after the clock
	// stops: checking it is not the restore's cost.
	b.out.Reset()
	b.m.attempted++
	id := b.tr.begin("restore", 0, op)
	t0 := time.Now()
	err = t.restore(f.Name, &b.out)
	d := since(t0)
	b.tr.end(id)
	if err != nil {
		b.m.failed++
		return fmt.Errorf("restore %s: %w", f.Name, err)
	}
	if got := hashutil.SumBytes(b.out.Bytes()); int64(b.out.Len()) != f.Size || got != want {
		return fmt.Errorf("restore %s: %d bytes with SHA-1 %s, want %d bytes with %s",
			f.Name, b.out.Len(), got.Hex(), f.Size, want.Hex())
	}
	b.m.restoreBytes += int64(b.out.Len())
	b.m.restoreS += d
	return nil
}

// endRestoreRound turns the whole-image restores since the last round
// into one restore_mb_s sample.
func (b *bench) endRestoreRound() {
	if b.m.restoreS > 0 {
		b.m.restoreMBs = append(b.m.restoreMBs, float64(b.m.restoreBytes)/(1<<20)/b.m.restoreS)
	}
	b.m.restoreBytes, b.m.restoreS = 0, 0
}

// rangeOp restores one byte range of f at a seeded offset and checks it
// against the generator's bytes.
func (b *bench) rangeOp(t target, f trace.FileInfo, op int64) error {
	// Callers spread ranges evenly over their files, so every run ranges
	// over the same mix of first and later days. Lengths follow the golden-ratio sequence
	// over rangeMin..rangeMax, so every run's lengths cover that span
	// evenly; only offsets are drawn.
	_, frac := math.Modf(float64(len(b.m.rangeMS)+1) * (math.Sqrt(5) - 1) / 2)
	n := b.cfg.rangeMin + int64(frac*float64(b.cfg.rangeMax-b.cfg.rangeMin+1))
	if n > f.Size {
		n = f.Size
	}
	off := b.rng.Int63n(f.Size - n + 1)
	b.out.Reset()
	var reads0 int64
	if b.cfg.trace {
		reads0 = diskReads(t)
	}
	b.m.attempted++
	id := b.tr.begin("range", 0, op)
	t0 := time.Now()
	err := t.restoreRange(f.Name, off, n, &b.out)
	d := since(t0)
	b.tr.end(id)
	if err != nil {
		b.m.failed++
		return fmt.Errorf("range %s [%d,+%d): %w", f.Name, off, n, err)
	}
	if b.cfg.trace {
		b.m.rangeReads = append(b.m.rangeReads, float64(diskReads(t)-reads0))
	}
	b.m.rangeMS = append(b.m.rangeMS, d*1e3)
	b.probes.ranges = append(b.probes.ranges, probeRange{f.Name, off, n, d * 1e3})
	want, err := b.expectedRange(f.Name, off, n)
	if err != nil {
		return err
	}
	if !bytes.Equal(b.out.Bytes(), want) {
		return fmt.Errorf("range %s [%d,+%d): restored bytes differ from the input", f.Name, off, n)
	}
	return nil
}

// runRestoreSeek builds the served base store cfg.setups times (the
// set-up, and the workload's ingest samples), keeps the last, and then
// runs the timed loop of ranged restores, verified whole-image restores
// and an occasional put of a new snapshot.
func (b *bench) runRestoreSeek() error {
	if err := b.buildInputs(); err != nil {
		return err
	}
	base := b.files(0, b.cfg.days)
	var t *netTarget
	var dir string
	for i := 0; i < b.cfg.setups; i++ {
		if t != nil {
			if err := closeTarget(t, dir); err != nil {
				return err
			}
			runtime.GC()
		}
		dir = filepath.Join(b.dir, fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		var err error
		if t, err = startNet(dir, 1, 0); err != nil {
			return err
		}
		err = b.ingest(t, base, int64(i))
		b.m.setupS = append(b.m.setupS, since(t0))
		if err == nil {
			err = b.witness(t, sumSize(base))
		}
		if err != nil {
			return errors.Join(err, closeTarget(t, dir))
		}
	}
	// The set-up ingests are set-up: restore-seek's ingest samples are
	// its loop's puts, spread over the timed phase like its reads.
	b.m.ingestMBs, b.m.ingestCPU = nil, nil
	return errors.Join(b.seekLoop(t, base), closeTarget(t, dir))
}

// seekLoop is restore-seek's timed phase over the set-up store t.
func (b *bench) seekLoop(t *netTarget, base []trace.FileInfo) error {
	for _, d := range disks(t) {
		d.SetReadDelay(b.cfg.readDelay)
	}
	if b.cfg.tamper != nil {
		b.cfg.tamper(disks(t))
	}
	present := append([]trace.FileInfo(nil), base...)
	pending := b.files(b.cfg.days, b.cfg.days+b.cfg.putDays)
	b.out.Grow(int(max(maxSize(present), maxSize(pending))))
	runtime.GC() // the set-ups' garbage is not the loop's cost
	before := snapshot(t)
	start := time.Now()
	var putBytes int64
	var restores int
	for op := int64(0); since(start) < b.cfg.seconds; op++ {
		switch {
		case (op+1)%int64(b.cfg.putEvery) == 0 && len(pending) > 0:
			f := pending[0]
			cpu0, t0 := cpuSeconds(), time.Now()
			if err := b.put(t, f, 0, op); err != nil {
				return err
			}
			b.m.addIngest(f.Size, since(t0), cpuSeconds()-cpu0)
			pending, present = pending[1:], append(present, f)
			putBytes += f.Size
		case (op+1)%int64(b.cfg.restoreEvery) == 0:
			f := present[restores%len(present)]
			restores++
			if err := b.restore(t, f, op); err != nil {
				return err
			}
		default:
			if err := b.rangeOp(t, present[len(b.probes.ranges)%len(present)], op); err != nil {
				return err
			}
		}
	}
	b.endRestoreRound()
	b.lay.add(snapshot(t).sub(before))
	b.lay["input"] += float64(putBytes)
	if !b.cfg.trace {
		return nil
	}
	if err := b.probeCompute(base[0]); err != nil {
		return err
	}
	return b.probeStore(t, present)
}
