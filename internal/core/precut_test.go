package core

import (
	"context"
	"io"
	"reflect"
	"strings"
	"testing"

	"mhdedup/internal/chunker"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/trace"
)

// precutSource cuts r with a chunker built by the chunker package's own
// factories and hashes every chunk — the work a client does before it
// offers chunks over the wire.
type precutSource struct{ ch chunker.Chunker }

func (s precutSource) Next() (Chunk, error) {
	c, err := s.ch.Next()
	if err != nil {
		return Chunk{}, err
	}
	return Chunk{Data: c.Data, Hash: hashutil.SumBytes(c.Data)}, nil
}

// sliceSource replays a fixed list of pre-cut chunks.
type sliceSource struct{ chunks []Chunk }

func (s *sliceSource) Next() (Chunk, error) {
	if len(s.chunks) == 0 {
		return Chunk{}, io.EOF
	}
	c := s.chunks[0]
	s.chunks = s.chunks[1:]
	return c, nil
}

func precutDataset(t *testing.T) *trace.Dataset {
	t.Helper()
	cfg := trace.Default()
	cfg.Machines = 2
	cfg.Days = 3
	cfg.SnapshotBytes = 256 << 10
	cfg.EditsPerDay = 6
	cfg.EditBytes = 8 << 10
	ds, err := trace.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestPutChunksMatchesPutFile is the engine-level differential gate for
// the pre-cut entry point: chunks cut by NewCDC/NewTTTD/NewGear and
// hashed outside the engine must produce a store object-identical to
// PutFile of the same bytes, with an identical Report except for the
// first chunk+hash pass the engine no longer runs. HashWorkers changes
// only how PutFile hashes; PutChunksContext ignores it.
func TestPutChunksMatchesPutFile(t *testing.T) {
	ds := precutDataset(t)
	cutters := []struct {
		name          string
		tttd, fastCDC bool
		cut           func(io.Reader, chunker.Params) (chunker.Chunker, error)
	}{
		{"cdc", false, false, chunker.NewCDC},
		{"tttd", true, false, func(r io.Reader, p chunker.Params) (chunker.Chunker, error) { return chunker.NewTTTD(r, p) }},
		{"gear", false, true, chunker.NewGear},
	}
	for _, mode := range []struct {
		name   string
		sparse bool
	}{{"mhd", false}, {"si-mhd", true}} {
		for _, cut := range cutters {
			for _, workers := range []int{0, 2} {
				name := mode.name + "/" + cut.name
				if workers > 0 {
					name += "/hash-workers"
				}
				t.Run(name, func(t *testing.T) {
					cfg := stressConfig(mode.sparse)
					cfg.CacheManifests = 2 // evictions and reloads must replay identically
					cfg.TTTD, cfg.FastCDC = cut.tttd, cut.fastCDC
					cfg.HashWorkers = workers

					wantRep, wantDisk := runVariant(t, cfg, ds, func(d *Dedup) error {
						return ds.EachFile(func(info trace.FileInfo, r io.Reader) error {
							return d.PutFile(info.Name, r)
						})
					})
					gotRep, gotDisk := runVariant(t, cfg, ds, func(d *Dedup) error {
						s := d.NewSession()
						return ds.EachFile(func(info trace.FileInfo, r io.Reader) error {
							ch, err := cut.cut(r, cfg.ChunkerParams())
							if err != nil {
								return err
							}
							return s.PutChunksContext(context.Background(), info.Name, precutSource{ch})
						})
					})
					if wantRep.DupBytes == 0 || wantRep.HashedBytes <= wantRep.InputBytes {
						t.Fatalf("dataset exercises no match extension (dup %d B, hashed %d of %d B)",
							wantRep.DupBytes, wantRep.HashedBytes, wantRep.InputBytes)
					}
					compareSnapshots(t, "PutChunksContext", wantDisk, gotDisk)

					// Honest accounting: the skipped first pass is the
					// whole input; every later re-hash still counts.
					if gotRep.ChunkedBytes != 0 {
						t.Errorf("ChunkedBytes = %d, want 0 for pre-cut input", gotRep.ChunkedBytes)
					}
					if want := wantRep.HashedBytes - wantRep.InputBytes; gotRep.HashedBytes != want {
						t.Errorf("HashedBytes = %d, want %d (PutFile's %d minus the %d-byte first pass)",
							gotRep.HashedBytes, want, wantRep.HashedBytes, wantRep.InputBytes)
					}
					gotRep.ChunkedBytes, gotRep.HashedBytes = wantRep.ChunkedBytes, wantRep.HashedBytes
					if !reflect.DeepEqual(gotRep, wantRep) {
						t.Errorf("report differs:\n got %+v\nwant %+v", gotRep, wantRep)
					}
				})
			}
		}
	}
}

// TestPutChunksAccounting pins the per-chunk accounting of the pre-cut
// path on one file: input and chunk counts are charged, the chunking
// counters and the core.chunk_ns histogram are not (a pre-cut source's
// Next is a wait on the caller, not chunking work), while the SHM merge
// re-hash of flushed groups still counts as hashing.
func TestPutChunksAccounting(t *testing.T) {
	cfg := testConfig()
	data := randBytes(77, 64<<10)
	ch, err := chunker.NewCDC(strings.NewReader(string(data)), cfg.ChunkerParams())
	if err != nil {
		t.Fatal(err)
	}
	var chunks []Chunk
	for {
		c, err := precutSource{ch}.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, c)
	}

	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hist := metrics.GetHistogram("core.chunk_ns")
	before := hist.Snapshot().Count
	if err := d.NewSession().PutChunksContext(context.Background(), "f", &sliceSource{chunks: chunks}); err != nil {
		t.Fatal(err)
	}
	if n := hist.Snapshot().Count - before; n != 0 {
		t.Errorf("core.chunk_ns observed %d times on the pre-cut path, want 0", n)
	}
	st := d.Stats()
	if st.InputBytes != int64(len(data)) || st.ChunksIn != int64(len(chunks)) {
		t.Errorf("InputBytes/ChunksIn = %d/%d, want %d/%d", st.InputBytes, st.ChunksIn, len(data), len(chunks))
	}
	if st.ChunkedBytes != 0 {
		t.Errorf("ChunkedBytes = %d, want 0", st.ChunkedBytes)
	}
	// Fresh random data is all non-duplicate: every SD-group's followers
	// are merged and re-hashed; only the group leaders (hooks) are not.
	var merged int64
	for i, c := range chunks {
		if i%cfg.SD != 0 {
			merged += int64(len(c.Data))
		}
	}
	if st.HashedBytes != merged {
		t.Errorf("HashedBytes = %d, want the %d bytes of SHM merged groups", st.HashedBytes, merged)
	}

	// The io.Reader path still observes one chunk_ns per chunk.
	before = hist.Snapshot().Count
	if err := d.PutFile("g", strings.NewReader(string(data))); err != nil {
		t.Fatal(err)
	}
	if n := hist.Snapshot().Count - before; n != int64(len(chunks)) {
		t.Errorf("PutFile observed core.chunk_ns %d times, want %d", n, len(chunks))
	}

	var out strings.Builder
	if err := d.Restore("f", &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != string(data) {
		t.Fatal("pre-cut file does not restore to its input")
	}
}

// TestPutChunksRefusesEmptyChunk: an empty pre-cut chunk cannot come
// from any chunker and would make an empty recipe ref; it fails the file.
func TestPutChunksRefusesEmptyChunk(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := &sliceSource{chunks: []Chunk{{Data: nil, Hash: hashutil.SumBytes(nil)}}}
	if err := d.NewSession().PutChunksContext(context.Background(), "f", src); err == nil {
		t.Fatal("empty pre-cut chunk accepted")
	}
}
