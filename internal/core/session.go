package core

import (
	"context"
	"fmt"
	"io"
	"sync"
)

// Session is one ingest stream's handle on a shared Dedup. Deduplication of
// a single backup stream is inherently ordered — the hysteresis buffer,
// match extension and HHR all depend on seeing the stream's chunks in order
// — so a Session's PutFile calls must not overlap. But sessions are
// independent of each other: N Sessions may run PutFile concurrently on the
// same Dedup, each carrying only per-file private state (fileState) and
// funneling every shared access through the engine's striped indexes,
// per-manifest locks, atomic bloom filter and locked disk.
//
// A Session holds no state between files (fileState lives for one PutFile),
// so it is merely an ordering token: one Session ≡ one stream.
type Session struct {
	d *Dedup
}

// NewSession returns a session for one concurrent ingest stream. Sessions
// are cheap; create one per stream.
func (d *Dedup) NewSession() *Session {
	return &Session{d: d}
}

// PutFile deduplicates one input file on this session's stream. Files of
// one session must be fed in backup-stream order and must not overlap;
// PutFile calls on different sessions of the same Dedup may run
// concurrently.
func (s *Session) PutFile(name string, r io.Reader) error {
	return s.d.putFile(context.Background(), name, r)
}

// PutFileContext is PutFile with cancellation: the ingest aborts between
// chunks as soon as ctx is done and returns ctx.Err(). A server holding
// one session per network connection cancels the context when the
// connection dies, so an abandoned upload stops consuming the engine
// instead of running to stream end. The partially ingested file writes no
// FileManifest, so it is not restorable; chunk data already flushed for it
// remains until a sweep, exactly as for any other mid-file error.
//
// Cancellation is checked per chunk, so a reader blocked in Read defers
// it; callers that own the reader (a net.Conn, an io.Pipe) should also
// close it on cancel to unblock immediately.
func (s *Session) PutFileContext(ctx context.Context, name string, r io.Reader) error {
	return s.d.putFile(ctx, name, r)
}

// PutChunksContext is PutFileContext for a stream its caller has already
// cut and hashed: a server whose client chunks locally and whose wire
// verifies every chunk's SHA-1 hands the verified chunks over as they
// are, so the engine skips its chunker and its first SHA-1 pass and runs
// the same dedup path as PutFile from there on (BME/FME, HHR, SHM).
//
// The caller vouches for the chunks: each Hash must be the SHA-1 of its
// Data, and the cut points must be the ones PutFile's chunker would
// produce for the same bytes (Config.ChunkerParams), or the store stops
// matching what PutFile would have stored. Empty chunks are refused. A
// source blocked in Next defers cancellation, so a source fed from
// another goroutine should watch ctx itself.
func (s *Session) PutChunksContext(ctx context.Context, name string, src ChunkSource) error {
	return s.d.ingest(ctx, name, src, true)
}

// Item is one input file of a stream: a name (the Restore key, unique
// across the whole Dedup) and an opener returning its contents. The opener
// runs on the worker goroutine that ingests the stream, so ingest I/O
// overlaps across streams.
type Item struct {
	Name string
	Open func() (io.ReadCloser, error)
}

// Stream is an ordered sequence of input files sharing backup-stream
// locality — one machine's disk-image history, one tape rotation. Items are
// always ingested in order within a stream; different streams may be
// ingested concurrently.
type Stream struct {
	Name  string
	Items []Item
}

// IngestStreams deduplicates the given streams using up to workers
// concurrent sessions.
//
// workers ≤ 1 ingests the streams sequentially, in slice order, on the
// calling goroutine — exactly the loop a serial caller would write around
// PutFile, so the result is bit-identical to the serial engine (the
// determinism regression test pins this).
//
// workers > 1 starts min(workers, len(streams)) goroutines, each owning one
// Session; streams are handed out in slice order from a channel, so a free
// worker always takes the earliest unstarted stream. The first error stops
// the hand-out, remaining workers finish their current file and exit, and
// that first error is returned. Aggregate totals (input bytes, chunk
// counts, stored bytes) are independent of the interleaving when streams
// share no content; see the concurrency stress test.
func (d *Dedup) IngestStreams(workers int, streams []Stream) error {
	return d.IngestStreamsContext(context.Background(), workers, streams)
}

// IngestStreamsContext is IngestStreams with cancellation: once ctx is
// done no further file is started, in-flight PutFiles abort at their next
// chunk, and the first error returned is ctx.Err() (unless a worker
// failed first). This is the path a network server uses to abort a
// client's ingest when its connection dies.
func (d *Dedup) IngestStreamsContext(ctx context.Context, workers int, streams []Stream) error {
	if workers <= 1 || len(streams) <= 1 {
		s := d.NewSession()
		for _, st := range streams {
			if err := ingestStream(ctx, s, st); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > len(streams) {
		workers = len(streams)
	}
	feed := make(chan Stream)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		failed   = make(chan struct{})
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			close(failed)
		})
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := d.NewSession()
			for st := range feed {
				if err := ingestStream(ctx, s, st); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	// Feed streams in order; stop early once any worker failed or the
	// context was cancelled.
feeding:
	for _, st := range streams {
		select {
		case feed <- st:
		case <-failed:
			break feeding
		case <-ctx.Done():
			fail(ctx.Err())
			break feeding
		}
	}
	close(feed)
	wg.Wait()
	return firstErr
}

// ingestStream runs one stream's items, in order, through one session.
func ingestStream(ctx context.Context, s *Session, st Stream) error {
	for _, it := range st.Items {
		if err := ctx.Err(); err != nil {
			return err
		}
		r, err := it.Open()
		if err != nil {
			return fmt.Errorf("core: open %q (stream %q): %w", it.Name, st.Name, err)
		}
		putErr := s.PutFileContext(ctx, it.Name, r)
		closeErr := r.Close()
		if putErr != nil {
			return putErr
		}
		if closeErr != nil {
			return fmt.Errorf("core: close %q (stream %q): %w", it.Name, st.Name, closeErr)
		}
	}
	return nil
}
