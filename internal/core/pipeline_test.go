package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	"mhdedup/internal/chunker"
)

// TestPipelineParityWithSynchronous is the pipeline's master test: with any
// worker count, every statistic and every restored byte must be identical
// to the synchronous path.
func TestPipelineParityWithSynchronous(t *testing.T) {
	base := randBytes(201, 400_000)
	files := map[string][]byte{"a": base}
	order := []string{"a"}
	for i := int64(1); i <= 3; i++ {
		e := append([]byte(nil), base...)
		copy(e[90_000*i:], randBytes(700+i, 7_000))
		name := fmt.Sprintf("p%d", i)
		files[name] = e
		order = append(order, name)
	}

	sync := ingest(t, testConfig(), files, order)
	for _, workers := range []int{1, 2, 4, 16} {
		cfg := testConfig()
		cfg.HashWorkers = workers
		par := ingest(t, cfg, files, order)
		checkRestore(t, par, files)
		if par.Stats() != sync.Stats() {
			t.Errorf("workers=%d: stats differ from synchronous run\nsync: %+v\npar:  %+v",
				workers, sync.Stats(), par.Stats())
		}
		if par.Report().MetadataBytes != sync.Report().MetadataBytes {
			t.Errorf("workers=%d: metadata differs", workers)
		}
	}
}

func TestPipelineErrorPropagation(t *testing.T) {
	cfg := testConfig()
	cfg.HashWorkers = 4
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("stream died")
	err = d.PutFile("x", io.MultiReader(
		bytes.NewReader(randBytes(203, 100_000)),
		&failingReader{err: boom},
	))
	if !errors.Is(err, boom) {
		t.Errorf("pipeline error = %v, want the reader's error", err)
	}
	// The engine must remain usable for subsequent files.
	if err := d.PutFile("y", bytes.NewReader(randBytes(204, 50_000))); err != nil {
		t.Fatalf("engine unusable after failed file: %v", err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// failingReader yields an error immediately.
type failingReader struct{ err error }

func (r *failingReader) Read([]byte) (int, error) { return 0, r.err }

// endlessChunker produces chunks forever — a stand-in for an input stream
// much longer than the pipeline's read-ahead.
type endlessChunker struct{ n int }

func (c *endlessChunker) Next() (chunker.Chunk, error) {
	c.n++
	return chunker.Chunk{Data: randBytes(int64(c.n), 4096)}, nil
}

// TestPipelineStopMidStreamNoGoroutineLeak abandons a pipeline with chunks
// still queued, workers mid-hash and the reader blocked on read-ahead —
// stop() must unwind all of them. The goroutine count is the leak oracle.
func TestPipelineStopMidStreamNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		p := newChunkPipeline(&endlessChunker{}, 4)
		// Consume a few chunks so slots, workers and the reader are all in
		// flight, then walk away mid-stream.
		for j := 0; j < 5; j++ {
			if _, err := p.Next(); err != nil {
				t.Fatalf("next: %v", err)
			}
		}
		p.stop()
	}
	waitForGoroutines(t, baseline)
}

// TestPipelineStopAfterExhaustion: stop() after the stream drained to its
// terminal error must be a clean no-op (this is the normal PutFile path —
// the deferred stop always runs).
func TestPipelineStopAfterExhaustion(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var chunks []chunker.Chunk
	for i := 0; i < 8; i++ {
		chunks = append(chunks, chunker.Chunk{Data: randBytes(int64(300+i), 2048)})
	}
	p := newChunkPipeline(&sliceChunker{chunks: chunks}, 4)
	var got int
	for {
		_, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		got++
	}
	if got != len(chunks) {
		t.Errorf("drained %d chunks, want %d", got, len(chunks))
	}
	p.stop()
	waitForGoroutines(t, baseline)
}

// TestPutFileAbortReleasesPipeline: a PutFile that dies mid-stream (reader
// error) must tear its pipeline down via the deferred stop — no goroutine
// may outlive the call.
func TestPutFileAbortReleasesPipeline(t *testing.T) {
	cfg := testConfig()
	cfg.HashWorkers = 4
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	boom := errors.New("stream died")
	for i := 0; i < 5; i++ {
		err := d.PutFile(fmt.Sprintf("x%d", i), io.MultiReader(
			bytes.NewReader(randBytes(int64(500+i), 200_000)),
			&failingReader{err: boom},
		))
		if !errors.Is(err, boom) {
			t.Fatalf("PutFile error = %v, want %v", err, boom)
		}
	}
	waitForGoroutines(t, baseline)
}

func TestPipelineEmptyAndTinyFiles(t *testing.T) {
	cfg := testConfig()
	cfg.HashWorkers = 8
	files := map[string][]byte{"empty": {}, "tiny": []byte("abc"), "tiny2": []byte("abc")}
	d := ingest(t, cfg, files, []string{"empty", "tiny", "tiny2"})
	checkRestore(t, d, files)
}

func TestPipelineWorkerCountValidation(t *testing.T) {
	cfg := testConfig()
	cfg.HashWorkers = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative HashWorkers accepted")
	}
}

func BenchmarkIngestSynchronous(b *testing.B) { benchIngestWorkers(b, 0) }
func BenchmarkIngestPipeline4(b *testing.B)   { benchIngestWorkers(b, 4) }

func benchIngestWorkers(b *testing.B, workers int) {
	data := randBytes(1, 8<<20)
	cfg := DefaultConfig()
	cfg.ECS = 4096
	cfg.SD = 16
	cfg.HashWorkers = workers
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.PutFile("f", bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
		if err := d.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}
