package core

import (
	"io"
	"runtime"
	"sync"

	"mhdedup/internal/chunker"
	"mhdedup/internal/hashutil"
)

// The parallel ingest pipeline. Deduplication itself is an ordered,
// stateful process (the hysteresis buffer, match extension and HHR all
// depend on stream order), but chunk hashing is embarrassingly parallel
// and dominates the CPU cost of ingest. With HashWorkers > 0, PutFile
// overlaps Rabin scanning and SHA-1 with the dedup stage:
//
//	chunker goroutine ──► SHA-1 worker pool ──► in-order delivery ──► dedup
//
// Order is preserved with the classic ordered fan-out idiom: the reader
// assigns each chunk a one-buffered result slot and queues the slots in
// input order; workers fill slots as they finish; the consumer drains the
// queue in order. Results — chunk classification, metadata, statistics —
// are bit-identical to the synchronous path, which tests verify.

// hashedChunk is one pipeline item: a chunk with its digest, or a terminal
// error from the chunker.
type hashedChunk struct {
	Chunk
	err error
}

// chunkPipeline produces hashed chunks of one input stream in order.
type chunkPipeline struct {
	queue chan chan hashedChunk
	done  chan struct{}
	wg    sync.WaitGroup
}

// newChunkPipeline starts the pipeline over ch with the given worker count.
func newChunkPipeline(ch chunker.Chunker, workers int) *chunkPipeline {
	if workers > runtime.NumCPU() {
		workers = runtime.NumCPU()
	}
	if workers < 1 {
		workers = 1
	}
	p := &chunkPipeline{
		// Queue depth bounds read-ahead: enough to keep workers busy
		// without buffering unbounded chunk data.
		queue: make(chan chan hashedChunk, workers*4),
		done:  make(chan struct{}),
	}
	work := make(chan struct {
		data []byte
		slot chan hashedChunk
	}, workers*4)

	// Reader: pulls chunks in order, queues one slot per chunk.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer close(p.queue)
		defer close(work)
		for {
			c, err := ch.Next()
			if err != nil {
				slot := make(chan hashedChunk, 1)
				slot <- hashedChunk{err: err}
				select {
				case p.queue <- slot:
				case <-p.done:
				}
				return
			}
			slot := make(chan hashedChunk, 1)
			select {
			case p.queue <- slot:
			case <-p.done:
				return
			}
			select {
			case work <- struct {
				data []byte
				slot chan hashedChunk
			}{c.Data, slot}:
			case <-p.done:
				return
			}
		}
	}()

	// Workers: hash out of order, deliver into the per-chunk slot.
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for item := range work {
				item.slot <- hashedChunk{Chunk: Chunk{Data: item.data, Hash: hashutil.SumBytes(item.data)}}
			}
		}()
	}
	return p
}

// Next returns the next hashed chunk in input order (ChunkSource), and
// io.EOF once the chunker is exhausted.
func (p *chunkPipeline) Next() (Chunk, error) {
	slot, ok := <-p.queue
	if !ok {
		return Chunk{}, io.EOF
	}
	item := <-slot
	return item.Chunk, item.err
}

// stop tears the pipeline down (safe after normal exhaustion too).
func (p *chunkPipeline) stop() {
	close(p.done)
	// Drain remaining slots so workers blocked on slot sends can finish.
	for slot := range p.queue {
		select {
		case <-slot:
		default:
		}
	}
	p.wg.Wait()
}
