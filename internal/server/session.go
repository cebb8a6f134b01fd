package server

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"mhdedup/internal/core"
	"mhdedup/internal/events"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/wire"
)

// ingestSession is the server half of one client backup session: a
// core.Session on the shared engine, the ordered-application state (seq
// numbers, pending command window) and the open-file feed.
//
// Ownership: exactly one connection handler owns a session while
// `attached`; attach/detach/expire transitions go through the Server's
// mutex, which is what makes handler access to the other fields safe
// without per-field locking. Pending batches are discarded on detach —
// the client replays every command above lastApplied on resume and the
// need-lists are recomputed, so a half-received batch costs only its
// bytes, never correctness.
type ingestSession struct {
	token  uint64
	tenant string // namespace prefix for every file this session ingests
	srv    *Server
	eng    *core.Session
	ctx    context.Context
	abort  context.CancelFunc

	// Guarded by srv.mu.
	attached    bool
	gone        bool
	expireTimer *time.Timer
	// epoch is the attach/detach generation counter. Every transition
	// (resume, detach, teardown) increments it; the resume-expiry timer
	// captures the epoch it was armed in and its firing is honored only
	// while the session is still in that exact generation. This closes
	// the race where a timer fires, blocks on srv.mu, a resume commits,
	// and the stale expiry then aborts the re-attached session's
	// in-flight file under a live connection.
	epoch uint64

	// Owned by the attached handler.
	lastApplied uint64
	pending     map[uint64]*pendingCmd

	// file is the in-flight reassembly. The attached handler owns the
	// feed, but Server.Close tears sessions down from another goroutine
	// while a handler can be mid-apply (a shard hard-killed under load),
	// so the POINTER is guarded: both sides take a reference or swap it
	// out under fileMu and never dereference ss.file directly.
	fileMu sync.Mutex
	file   *openFile
}

// currentFile returns the open file (nil when none) under the lock.
func (ss *ingestSession) currentFile() *openFile {
	ss.fileMu.Lock()
	defer ss.fileMu.Unlock()
	return ss.file
}

// takeFile detaches and returns the open file, exactly once: the caller
// that gets a non-nil result owns its teardown or completion.
func (ss *ingestSession) takeFile() *openFile {
	ss.fileMu.Lock()
	defer ss.fileMu.Unlock()
	f := ss.file
	ss.file = nil
	return f
}

// pendingCmd is one client command received but not yet applied. Commands
// apply strictly in seq order; an Offer additionally waits until every
// needed chunk arrived.
type pendingCmd struct {
	seq  uint64
	kind uint8

	begin wire.FileBegin
	end   wire.FileEnd

	offer   wire.Offer
	need    []uint32 // offer indices whose bytes the client must send
	data    [][]byte // per offer index: pinned cache bytes or received bytes
	missing int      // needed chunks not yet received
}

// feedDepth bounds how many applied Offer batches may wait for the
// engine: enough to overlap the handler's chunk verification with the
// engine's dedup work without buffering a file's worth of chunks.
const feedDepth = 4

// openFile is the file currently being reassembled: a bounded feed of
// applied Offer batches into PutChunksContext running on its own
// goroutine, plus the running total and hash used to check the client's
// FileEnd claim. The chunks in the feed are already verified — needed
// chunks were SHA-1'd against their offered address on arrival, cache
// hits come from the hash-keyed chunk cache — so the engine takes them
// as cut and hashed instead of re-chunking the stream.
type openFile struct {
	name   string
	feed   chan []core.Chunk
	cancel context.CancelFunc // stops this file's engine ingest
	exited chan struct{}      // closed once the engine goroutine returned
	err    error              // the engine's result; read only after exited
	hash   *hashutil.Hasher
	fed    uint64
	short  bool // the last fed chunk was below the minimum cut size
}

// failure reports why the engine goroutine stopped (after exited).
func (f *openFile) failure() error {
	return fatalf(wire.CodeInternal, "ingest of %q failed: %v", f.name, f.err)
}

// feedSource is the engine's side of an openFile: the chunks of the
// applied Offer batches in order, io.EOF once the handler closes the
// feed, and the context's error once the file is aborted — a cancelled
// ingest takes no further batch, so a handler blocked handing one over
// is released only by the engine's exit and reports its error.
type feedSource struct {
	ctx   context.Context
	feed  <-chan []core.Chunk
	batch []core.Chunk
}

func (s *feedSource) Next() (core.Chunk, error) {
	for len(s.batch) == 0 {
		if err := s.ctx.Err(); err != nil {
			return core.Chunk{}, err
		}
		select {
		case b, ok := <-s.feed:
			if !ok {
				return core.Chunk{}, io.EOF
			}
			s.batch = b
		case <-s.ctx.Done():
			return core.Chunk{}, s.ctx.Err()
		}
	}
	c := s.batch[0]
	s.batch = s.batch[1:]
	return c, nil
}

// sessionFatal is an error that must be reported to the client as an
// Error frame and ends the session (no resume).
type sessionFatal struct {
	msg wire.ErrorMsg
}

func (e *sessionFatal) Error() string { return e.msg.Error() }

func fatalf(code uint16, format string, args ...any) error {
	return &sessionFatal{msg: wire.ErrorMsg{Code: code, Msg: fmt.Sprintf(format, args...)}}
}

// sessionShed is an overload refusal: reported to the client as a
// retryable Overloaded frame, after which the session is parked resumable
// (unlike sessionFatal, which ends it). The client backs off and replays.
type sessionShed struct {
	msg wire.ErrorMsg
}

func (e *sessionShed) Error() string { return e.msg.Error() }

func shedf(format string, args ...any) error {
	return &sessionShed{msg: wire.ErrorMsg{Code: wire.CodeOverloaded, Retryable: true,
		Msg: fmt.Sprintf(format, args...)}}
}

// handleFileBegin queues (or idempotently acks) a FileBegin command. A
// file boundary is also the shed point: while the durability layer is
// behind budget, starting another file would only grow the un-fsynced
// backlog, so the session is parked with a retryable Overloaded frame
// instead (replayed commands are never shed — their work is done).
func (ss *ingestSession) handleFileBegin(fb wire.FileBegin, send sender) error {
	if fb.Seq <= ss.lastApplied {
		return send(wire.TypeAck, wire.Ack{Seq: fb.Seq}.Marshal())
	}
	if d := ss.srv.cfg.Durability; d != nil {
		if reason, over := d.Overloaded(); over {
			ss.srv.cShed.Add(1)
			ss.srv.cfg.Events.Warn("server.shed",
				events.F("at", "file_begin"), events.F("session", ss.token),
				events.F("reason", reason))
			return shedf("overloaded, retry later: %s", reason)
		}
	}
	if err := ss.admit(fb.Seq); err != nil {
		return err
	}
	ss.pending[fb.Seq] = &pendingCmd{seq: fb.Seq, kind: wire.TypeFileBegin, begin: fb}
	return ss.applyReady(send)
}

// handleOffer computes the need-list for a batch of offered hashes,
// pinning cache hits immediately so later eviction cannot invalidate the
// answer, replies with the Need frame and queues the batch.
func (ss *ingestSession) handleOffer(of wire.Offer, send sender) error {
	if of.Seq <= ss.lastApplied {
		// Replayed batch that was already applied before the reconnect:
		// nothing is needed, just restate the ack.
		return send(wire.TypeAck, wire.Ack{Seq: of.Seq}.Marshal())
	}
	if err := ss.admit(of.Seq); err != nil {
		return err
	}
	pc := &pendingCmd{seq: of.Seq, kind: wire.TypeOffer, offer: of,
		data: make([][]byte, len(of.Entries))}
	for i, e := range of.Entries {
		if data, ok := ss.srv.cache.get(e.Hash); ok && uint32(len(data)) == e.Size {
			pc.data[i] = data
			continue
		}
		pc.need = append(pc.need, uint32(i))
	}
	pc.missing = len(pc.need)
	ss.pending[of.Seq] = pc
	ss.srv.cChunksOffered.Add(int64(len(of.Entries)))
	ss.srv.cChunksNeeded.Add(int64(len(pc.need)))
	ss.srv.cChunksCacheHit.Add(int64(len(of.Entries) - len(pc.need)))
	if err := send(wire.TypeNeed, wire.Need{Seq: of.Seq, Indices: pc.need}.Marshal()); err != nil {
		return err
	}
	return ss.applyReady(send)
}

// handleChunkData verifies and stores a run of needed chunk bytes.
func (ss *ingestSession) handleChunkData(cd wire.ChunkData, send sender) error {
	if cd.Seq <= ss.lastApplied {
		return nil // late data for an already-applied batch; harmless
	}
	pc, ok := ss.pending[cd.Seq]
	if !ok || pc.kind != wire.TypeOffer {
		return fatalf(wire.CodeProtocol, "chunk data for unknown offer seq %d", cd.Seq)
	}
	for j, chunk := range cd.Chunks {
		pos := int(cd.Start) + j
		if pos < 0 || pos >= len(pc.need) {
			return fatalf(wire.CodeProtocol, "chunk data index %d outside need list (len %d)", pos, len(pc.need))
		}
		idx := pc.need[pos]
		entry := pc.offer.Entries[idx]
		if pc.data[idx] != nil {
			return fatalf(wire.CodeProtocol, "duplicate chunk data for offer %d index %d", cd.Seq, idx)
		}
		if uint32(len(chunk)) != entry.Size {
			return fatalf(wire.CodeIntegrity, "offer %d index %d: got %d bytes, offered %d", cd.Seq, idx, len(chunk), entry.Size)
		}
		if hashutil.SumBytes(chunk) != entry.Hash {
			return fatalf(wire.CodeIntegrity, "offer %d index %d: chunk bytes do not hash to the offered address", cd.Seq, idx)
		}
		pc.data[idx] = chunk
		pc.missing--
		ss.srv.cache.put(entry.Hash, chunk)
		ss.srv.cChunksReceived.Add(1)
		ss.srv.cChunkBytesIn.Add(int64(len(chunk)))
	}
	return ss.applyReady(send)
}

// handleFileEnd queues a FileEnd command.
func (ss *ingestSession) handleFileEnd(fe wire.FileEnd, send sender) error {
	if fe.Seq <= ss.lastApplied {
		return send(wire.TypeAck, wire.Ack{Seq: fe.Seq}.Marshal())
	}
	if err := ss.admit(fe.Seq); err != nil {
		return err
	}
	ss.pending[fe.Seq] = &pendingCmd{seq: fe.Seq, kind: wire.TypeFileEnd, end: fe}
	return ss.applyReady(send)
}

// admit enforces the per-session in-flight window and seq sanity — the
// server's backpressure contract: at most Window unapplied commands.
func (ss *ingestSession) admit(seq uint64) error {
	if _, dup := ss.pending[seq]; dup {
		return fatalf(wire.CodeProtocol, "duplicate command seq %d", seq)
	}
	if len(ss.pending) >= ss.srv.cfg.Window {
		return fatalf(wire.CodeProtocol, "in-flight window exceeded (%d commands unapplied, window %d)",
			len(ss.pending), ss.srv.cfg.Window)
	}
	if seq > ss.lastApplied+uint64(ss.srv.cfg.Window) {
		return fatalf(wire.CodeProtocol, "command seq %d too far ahead of applied %d (window %d)",
			seq, ss.lastApplied, ss.srv.cfg.Window)
	}
	return nil
}

// applyReady applies queued commands in seq order for as long as the next
// one is complete, acking each. This is where the ordered stream the
// engine requires is re-established from the windowed, pipelined wire
// conversation.
func (ss *ingestSession) applyReady(send sender) error {
	for {
		pc, ok := ss.pending[ss.lastApplied+1]
		if !ok {
			return nil
		}
		if pc.kind == wire.TypeOffer && pc.missing > 0 {
			return nil
		}
		// Time the apply: this is where the handler feeds the engine and
		// where a slow engine (a full feed, or a FileEnd waiting on
		// PutChunksContext) shows up as an applyReady stall.
		start := time.Now()
		err := ss.apply(pc)
		d := ss.srv.hApply.ObserveSince(start)
		ss.srv.cfg.Events.SlowOp("apply", d,
			events.F("session", ss.token), events.F("seq", pc.seq),
			events.F("frame", wire.TypeName(pc.kind)))
		if err != nil {
			return err
		}
		delete(ss.pending, pc.seq)
		ss.lastApplied = pc.seq
		if err := send(wire.TypeAck, wire.Ack{Seq: pc.seq}.Marshal()); err != nil {
			return err
		}
	}
}

// apply executes one complete command against the engine feed.
func (ss *ingestSession) apply(pc *pendingCmd) error {
	switch pc.kind {
	case wire.TypeFileBegin:
		ss.fileMu.Lock()
		if ss.file != nil {
			open := ss.file.name
			ss.fileMu.Unlock()
			return fatalf(wire.CodeProtocol, "FileBegin %q while %q is open", pc.begin.Name, open)
		}
		ctx, cancel := context.WithCancel(ss.ctx)
		f := &openFile{name: wire.NSJoin(ss.tenant, pc.begin.Name), feed: make(chan []core.Chunk, feedDepth),
			cancel: cancel, exited: make(chan struct{}), hash: hashutil.NewHasher()}
		src := &feedSource{ctx: ctx, feed: f.feed}
		sess := ss.eng
		go func() {
			f.err = sess.PutChunksContext(ctx, f.name, src)
			cancel()
			close(f.exited)
		}()
		ss.file = f
		ss.fileMu.Unlock()
		return nil

	case wire.TypeOffer:
		f := ss.currentFile()
		if f == nil {
			return fatalf(wire.CodeProtocol, "Offer %d outside a file", pc.seq)
		}
		batch := make([]core.Chunk, len(pc.data))
		for i, data := range pc.data {
			if data == nil {
				return fatalf(wire.CodeInternal, "offer %d index %d has no bytes at apply time", pc.seq, i)
			}
			if err := ss.srv.checkCut(f, pc.seq, i, len(data)); err != nil {
				return err
			}
			f.hash.Write(data)
			f.fed += uint64(len(data))
			batch[i] = core.Chunk{Data: data, Hash: pc.offer.Entries[i].Hash}
		}
		select {
		case f.feed <- batch:
			return nil
		case <-f.exited:
			return f.failure()
		}

	case wire.TypeFileEnd:
		f := ss.takeFile()
		if f == nil {
			return fatalf(wire.CodeProtocol, "FileEnd %d outside a file", pc.seq)
		}
		// The engine sees the end of the feed only once the stream
		// checks out, so a mismatched stream never commits a manifest.
		if f.fed != pc.end.TotalBytes {
			f.stop()
			return fatalf(wire.CodeIntegrity, "file %q: reassembled %d bytes, client declared %d", f.name, f.fed, pc.end.TotalBytes)
		}
		if f.hash.Sum() != pc.end.Sum {
			f.stop()
			return fatalf(wire.CodeIntegrity, "file %q: reassembled stream does not hash to the declared sum", f.name)
		}
		close(f.feed)
		<-f.exited
		if f.err != nil {
			return f.failure()
		}
		// Durability barrier: the FileEnd ack this apply unlocks is the
		// server's promise that the file survives a crash, so it is not
		// sent until the file's log records are group-committed. N
		// sessions reaching this point concurrently share one fsync.
		if d := ss.srv.cfg.Durability; d != nil {
			start := time.Now()
			if err := d.Commit(); err != nil {
				return fatalf(wire.CodeInternal, "file %q ingested but not durable: %v", f.name, err)
			}
			dur := ss.srv.hCommit.ObserveSince(start)
			ss.srv.cfg.Events.SlowOp("commit", dur,
				events.F("session", ss.token), events.F("file", f.name))
		}
		ss.srv.cFilesIngested.Add(1)
		return nil
	}
	return fatalf(wire.CodeInternal, "unapplicable command kind %d", pc.kind)
}

// checkCut bounds the client's cut points. The client's cuts become the
// stored cuts, so the server refuses what no chunker with the negotiated
// parameters emits: an empty chunk, one over the maximum size, or any
// chunk after one below the minimum size (only a file's last chunk may
// be short).
func (s *Server) checkCut(f *openFile, seq uint64, i, n int) error {
	if f.short {
		return fatalf(wire.CodeIntegrity, "offer %d index %d: chunk follows a chunk shorter than the %d-byte minimum", seq, i, s.minChunk)
	}
	if n == 0 || n > s.maxChunk {
		return fatalf(wire.CodeIntegrity, "offer %d index %d: %d-byte chunk outside the negotiated 1..%d", seq, i, n, s.maxChunk)
	}
	f.short = n < s.minChunk
	return nil
}

// closeRequested finalizes the session on an orderly Close: every command
// must already be applied and no file may be open.
func (ss *ingestSession) closeRequested() error {
	if f := ss.currentFile(); f != nil {
		return fatalf(wire.CodeProtocol, "Close with file %q still open", f.name)
	}
	if len(ss.pending) != 0 {
		return fatalf(wire.CodeProtocol, "Close with %d commands unapplied", len(ss.pending))
	}
	return nil
}

// stop cancels the file's engine ingest and waits for its goroutine.
func (f *openFile) stop() {
	f.cancel()
	<-f.exited
}

// abortOpenFile tears down the in-flight file (detach-expiry, server
// Close and fatal-error paths): the engine ingest is cancelled and waited
// for, and the engine's error is logged — nobody may be left on the wire
// to report it to.
func (ss *ingestSession) abortOpenFile() {
	f := ss.takeFile()
	if f == nil {
		return
	}
	f.stop()
	ss.srv.cfg.Events.Info("session.file_abort",
		events.F("session", ss.token), events.F("file", f.name), events.F("err", f.err))
}
