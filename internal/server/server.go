// Package server implements dedupd — the network half of the dedup
// engine. It accepts N concurrent client connections over TCP, maps each
// ingest connection onto one core.Session of a single shared MHD/SI-MHD
// engine, and speaks the internal/wire protocol: the client chunks
// locally and negotiates by hash, so only chunk bytes the server has
// never seen cross the wire, and the engine ingests the client's
// verified chunks as cut (core.Session.PutChunksContext) instead of
// chunking and hashing the stream a second time.
//
// The server enforces hard limits (max sessions, max frame payload, a
// per-session in-flight command window, idle read and write deadlines),
// answers overload and shutdown with retry-friendly error frames, keeps
// detached sessions resumable for a grace window so clients survive
// transient connection loss, and serves restores — optionally through the
// verifying store path — back over the same protocol.
//
// Observability: session lifecycle transitions (attach, resume, detach,
// expire, close, fail) are emitted as structured events through
// Config.Events, per-frame-type handling latency and command-apply
// latency are recorded in Config.Registry histograms, and operations
// slower than the event log's slow-op threshold additionally emit a
// warn-level slow_op event.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mhdedup/internal/core"
	"mhdedup/internal/events"
	"mhdedup/internal/exp"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
	"mhdedup/internal/wire"
)

// minMaxPayload is the smallest MaxPayload a server accepts. Below this
// the protocol cannot make progress: a restore frame must fit its
// length-prefix overhead plus at least some data, and chunk negotiation
// with sub-kilobyte frames is pathological.
const minMaxPayload = 1024

// restoreDataOverhead is the exact wire overhead RestoreData.Marshal adds
// around the data bytes (one u32 length prefix). The restore frame
// writer budgets payloads as MaxPayload - restoreDataOverhead; deriving
// it here (rather than guessing a margin) keeps the budget positive for
// every legal MaxPayload.
const restoreDataOverhead = 4

// Config parameterizes a Server. Zero fields take the documented
// defaults.
type Config struct {
	// Engine is the shared deduplicator every ingest session feeds. It
	// must be an MHD or SI-MHD engine (the session-capable ones).
	Engine *core.Dedup

	// MaxSessions caps concurrent (live, including detached-resumable)
	// ingest sessions; default 16. Excess clients get a retryable Busy.
	MaxSessions int
	// Window caps un-applied commands per session — the backpressure
	// contract mirrored to the client in HelloOK; default 8.
	Window int
	// MaxPayload caps frame payloads; default wire.DefaultMaxPayload,
	// minimum minMaxPayload (1024).
	MaxPayload uint32
	// IdleTimeout bounds how long a connection may sit between frames;
	// default 2 minutes. Expiry closes the connection (retry-friendly:
	// the session stays resumable for ResumeTimeout).
	IdleTimeout time.Duration
	// WriteTimeout bounds each frame write; default 1 minute.
	WriteTimeout time.Duration
	// ResumeTimeout is how long a detached session survives for
	// reconnection before its in-flight file is aborted; default 2
	// minutes.
	ResumeTimeout time.Duration
	// ChunkCacheBytes budgets the wire-level chunk byte cache that powers
	// hash negotiation; default 256 MiB. Zero disables the cache (every
	// offered chunk is then needed — correct, just bandwidth-naive).
	ChunkCacheBytes int64
	// RestoreWorkers is how many concurrent container reads each restore
	// stream fans out to through the batched restore pipeline; default 4.
	// 1 runs the planned/coalesced pipeline synchronously. Frames are
	// always emitted in order regardless (the pipeline's emitter is
	// in-order by construction).
	RestoreWorkers int
	// RestoreWindowBytes bounds each restore's reorder buffer; default
	// 8 MiB (store.DefaultRestoreWindowBytes).
	RestoreWindowBytes int64
	// Durability, when non-nil, is the store's continuous-durability
	// hook: Commit is awaited before each FileEnd is acknowledged (so an
	// ack means the whole file is on stable storage — group-committed,
	// N sessions share one fsync), and Overloaded gates admission: while
	// it reports true, new sessions and new files are refused with
	// retryable Overloaded frames instead of queued in RAM. Nil keeps
	// the legacy persist-at-drain behavior.
	Durability Durability
	// Registry receives the server's operational counters, latency
	// histograms and occupancy gauges; default metrics.Default.
	Registry *metrics.Registry
	// Events receives structured lifecycle and slow-op events; default
	// events.Nop() (nothing retained, nothing written).
	Events *events.Log
}

func (c *Config) fillDefaults() error {
	if c.Engine == nil {
		return errors.New("server: Config.Engine is required")
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 16
	}
	if c.Window == 0 {
		c.Window = 8
	}
	if c.MaxPayload == 0 {
		c.MaxPayload = wire.DefaultMaxPayload
	}
	if c.MaxPayload < minMaxPayload {
		return fmt.Errorf("server: MaxPayload %d below minimum %d (frames must fit codec overhead plus data)",
			c.MaxPayload, minMaxPayload)
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = time.Minute
	}
	if c.ResumeTimeout == 0 {
		c.ResumeTimeout = 2 * time.Minute
	}
	if c.ChunkCacheBytes == 0 {
		c.ChunkCacheBytes = 256 << 20
	}
	if c.RestoreWorkers == 0 {
		c.RestoreWorkers = 4
	}
	if c.RestoreWorkers < 1 {
		return fmt.Errorf("server: RestoreWorkers must be positive, got %d", c.RestoreWorkers)
	}
	if c.RestoreWindowBytes == 0 {
		c.RestoreWindowBytes = store.DefaultRestoreWindowBytes
	}
	if c.RestoreWindowBytes < 0 {
		return fmt.Errorf("server: RestoreWindowBytes must be positive, got %d", c.RestoreWindowBytes)
	}
	if c.Registry == nil {
		c.Registry = metrics.Default
	}
	if c.Events == nil {
		c.Events = events.Nop()
	}
	if c.MaxSessions < 1 || c.Window < 1 {
		return fmt.Errorf("server: MaxSessions (%d) and Window (%d) must be positive", c.MaxSessions, c.Window)
	}
	return nil
}

// Server is one dedupd instance.
type Server struct {
	cfg      Config
	opts     wire.EngineOptions // the handshake contract clients must match
	minChunk int                // cut bounds every offered chunk must respect
	maxChunk int
	cache    *chunkCache
	tokenSrc atomic.Uint64

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	sessions map[uint64]*ingestSession
	draining bool
	closed   bool // Close() ran: late-accepted conns are shut immediately
	connWG   sync.WaitGroup

	// Hot operational counters (also registered in cfg.Registry).
	cSessionsActive *atomic.Int64
	cSessionsTotal  *atomic.Int64
	cSessionsResume *atomic.Int64
	cFilesIngested  *atomic.Int64
	cChunksOffered  *atomic.Int64
	cChunksNeeded   *atomic.Int64
	cChunksReceived *atomic.Int64
	cChunksCacheHit *atomic.Int64
	cChunkBytesIn   *atomic.Int64
	cWireBytesIn    *atomic.Int64
	cWireBytesOut   *atomic.Int64
	cRestores       *atomic.Int64
	cRestoreBytes   *atomic.Int64
	cErrors         *atomic.Int64
	cShed           *atomic.Int64
	cPeerServed     *atomic.Int64
	cPeerMissed     *atomic.Int64
	cPeerPut        *atomic.Int64
	cMigratedIn     *atomic.Int64
	cMigratedBytes  *atomic.Int64
	cFileDrops      *atomic.Int64

	// Latency histograms (nanoseconds; also in cfg.Registry).
	hFrame   map[uint8]*metrics.Histogram // per ingest frame type
	hApply   *metrics.Histogram           // one engine-feed command apply
	hRestore *metrics.Histogram           // one whole streamed restore
	hCommit  *metrics.Histogram           // one durability group commit
}

// Durability is the hook a continuously-durable store plugs into the
// server (store.Durable implements it). Commit returns once every engine
// mutation made before the call is on stable storage; Overloaded reports —
// with a human-readable reason — that the durability machinery is behind
// budget and new work should be shed with retryable errors.
type Durability interface {
	Commit() error
	Overloaded() (reason string, overloaded bool)
}

// New returns an unstarted server over cfg.Engine.
func New(cfg Config) (*Server, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	ec := cfg.Engine.Config()
	// The client's cuts become the stored cuts, so every chunker setting
	// the engine uses must travel in Hello. A custom polynomial does not.
	if ec.Poly != 0 {
		return nil, fmt.Errorf("server: engine Rabin polynomial %#x cannot be negotiated in Hello; clients cut with the default", uint64(ec.Poly))
	}
	minChunk, maxChunk, err := ec.ChunkerParams().Bounds()
	if err != nil {
		return nil, fmt.Errorf("server: engine chunker: %w", err)
	}
	algorithm := exp.AlgoMHD
	if ec.SparseIndex {
		algorithm = exp.AlgoSIMHD
	}
	s := &Server{
		cfg: cfg,
		opts: wire.EngineOptions{
			Algorithm: algorithm,
			ECS:       uint32(ec.ECS),
			SD:        uint32(ec.SD),
			TTTD:      ec.TTTD,
			FastCDC:   ec.FastCDC,
		},
		minChunk: minChunk,
		maxChunk: maxChunk,
		cache:    newChunkCache(cfg.ChunkCacheBytes),
		conns:    make(map[net.Conn]struct{}),
		sessions: make(map[uint64]*ingestSession),
	}
	r := cfg.Registry
	s.cSessionsActive = r.Counter("server.sessions.active")
	s.cSessionsTotal = r.Counter("server.sessions.total")
	s.cSessionsResume = r.Counter("server.sessions.resumed")
	s.cFilesIngested = r.Counter("server.files.ingested")
	s.cChunksOffered = r.Counter("server.chunks.offered")
	s.cChunksNeeded = r.Counter("server.chunks.needed")
	s.cChunksReceived = r.Counter("server.chunks.received")
	s.cChunksCacheHit = r.Counter("server.chunks.cache_hits")
	s.cChunkBytesIn = r.Counter("server.chunks.bytes_received")
	s.cWireBytesIn = r.Counter("server.wire.bytes_in")
	s.cWireBytesOut = r.Counter("server.wire.bytes_out")
	s.cRestores = r.Counter("server.restores")
	s.cRestoreBytes = r.Counter("server.restore.bytes")
	s.cErrors = r.Counter("server.errors")
	s.cShed = r.Counter("server.shed")
	s.cPeerServed = r.Counter("server.peer.chunks_served")
	s.cPeerMissed = r.Counter("server.peer.chunks_missed")
	s.cPeerPut = r.Counter("server.peer.chunks_put")
	s.cMigratedIn = r.Counter("server.migrate.files_in")
	s.cMigratedBytes = r.Counter("server.migrate.bytes_in")
	s.cFileDrops = r.Counter("server.migrate.drops")
	s.hFrame = map[uint8]*metrics.Histogram{
		wire.TypeFileBegin: r.Histogram("server.frame.file_begin_ns"),
		wire.TypeOffer:     r.Histogram("server.frame.offer_ns"),
		wire.TypeChunkData: r.Histogram("server.frame.chunk_data_ns"),
		wire.TypeFileEnd:   r.Histogram("server.frame.file_end_ns"),
	}
	s.hApply = r.Histogram("server.apply_ns")
	s.hRestore = r.Histogram("server.restore_ns")
	s.hCommit = r.Histogram("server.commit_ns")
	r.SetGauge("server.sessions.live", func() int64 { return int64(s.SessionCount()) })
	r.SetGauge("server.cache.bytes", func() int64 { b, _ := s.cache.stats(); return b })
	r.SetGauge("server.cache.entries", func() int64 { _, n := s.cache.stats(); return int64(n) })
	// Seed the token source so resume tokens from a previous process
	// incarnation are never accidentally honored.
	s.tokenSrc.Store(uint64(time.Now().UnixNano()))
	return s, nil
}

// Options returns the engine handshake contract the server enforces.
func (s *Server) Options() wire.EngineOptions { return s.opts }

// Serve accepts connections on ln until Drain or Close. It returns nil
// after an orderly shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			// Close() already snapshotted s.conns: a connection accepted
			// in the window between that snapshot and ln.Close() taking
			// effect would never be closed and would pin connWG (hence
			// Close) for up to IdleTimeout. Shut it here instead.
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.connWG.Done()
			s.handleConn(c)
		}()
	}
}

// Drain performs a graceful shutdown: stop accepting connections, refuse
// new sessions with a retryable error frame, let in-flight sessions run
// to their Close, and return once the server is idle. If ctx expires
// first, remaining connections are severed and sessions aborted.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	s.cfg.Events.Info("server.drain")
	if ln != nil {
		ln.Close()
	}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		idle := len(s.sessions) == 0 && len(s.conns) == 0
		s.mu.Unlock()
		if idle {
			s.connWG.Wait()
			return nil
		}
		select {
		case <-ctx.Done():
			s.Close()
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close hard-stops the server: the listener, every connection and every
// session (in-flight ingests are cancelled). Connections that Accept
// hands to Serve after the shutdown snapshot are closed by Serve itself
// (it checks the closed flag), so Close never waits on a connection it
// could not see.
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining = true
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	sessions := make([]*ingestSession, 0, len(s.sessions))
	for _, ss := range s.sessions {
		sessions = append(sessions, ss)
	}
	s.mu.Unlock()
	s.cfg.Events.Info("server.close",
		events.F("conns", len(conns)), events.F("sessions", len(sessions)))
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	for _, ss := range sessions {
		s.expireSession(ss, true)
	}
	s.connWG.Wait()
	return nil
}

// SessionCount returns the number of live (attached or resumable)
// sessions.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// CacheStats exposes the wire chunk cache occupancy for metrics.
func (s *Server) CacheStats() (bytes int64, entries int) { return s.cache.stats() }

// ---------------------------------------------------------------------------
// Connection handling.

// sender writes one frame with deadline and accounting applied.
type sender func(t uint8, payload []byte) error

// handleConn speaks the protocol on one accepted connection.
func (s *Server) handleConn(c net.Conn) {
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	send := func(t uint8, payload []byte) error {
		if s.cfg.WriteTimeout > 0 {
			c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		}
		n, err := wire.WriteFrame(c, t, payload)
		s.cWireBytesOut.Add(int64(n))
		return err
	}
	sendErr := func(code uint16, retryable bool, format string, args ...any) {
		s.cErrors.Add(1)
		msg := wire.ErrorMsg{Code: code, Retryable: retryable, Msg: fmt.Sprintf(format, args...)}
		send(wire.TypeError, msg.Marshal())
	}
	read := func() (wire.Frame, error) {
		if s.cfg.IdleTimeout > 0 {
			c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		f, err := wire.ReadFrame(c, s.cfg.MaxPayload)
		if err == nil {
			s.cWireBytesIn.Add(int64(wire.HeaderSize + len(f.Payload) + wire.TrailerSize))
		}
		return f, err
	}

	// Handshake.
	f, err := read()
	if err != nil {
		return
	}
	if f.Type != wire.TypeHello {
		sendErr(wire.CodeProtocol, false, "expected Hello, got %s", wire.TypeName(f.Type))
		return
	}
	hello, err := wire.UnmarshalHello(f.Payload)
	if err != nil {
		sendErr(wire.CodeProtocol, false, "bad Hello: %v", err)
		return
	}
	if !wire.ValidTenant(hello.Tenant) {
		sendErr(wire.CodeHandshake, false, "invalid tenant identifier %q", hello.Tenant)
		return
	}
	switch hello.Mode {
	case wire.ModeRestore:
		ok := wire.HelloOK{Window: uint32(s.cfg.Window), MaxPayload: s.cfg.MaxPayload}
		if err := send(wire.TypeHelloOK, ok.Marshal()); err != nil {
			return
		}
		s.serveRestoreConn(hello.Tenant, read, send, sendErr)
	case wire.ModeIngest:
		s.serveIngestConn(c, hello, read, send, sendErr)
	case wire.ModePeer:
		ok := wire.HelloOK{Window: uint32(s.cfg.Window), MaxPayload: s.cfg.MaxPayload}
		if err := send(wire.TypeHelloOK, ok.Marshal()); err != nil {
			return
		}
		s.servePeerConn(read, send, sendErr)
	default:
		sendErr(wire.CodeProtocol, false, "unknown session mode %d", hello.Mode)
	}
}

// serveIngestConn attaches (or creates) an ingest session and runs its
// command loop until error, disconnect or Close.
func (s *Server) serveIngestConn(c net.Conn, hello wire.Hello,
	read func() (wire.Frame, error), send sender,
	sendErr func(code uint16, retryable bool, format string, args ...any)) {

	if hello.ResumeToken == 0 && hello.Options != s.opts {
		sendErr(wire.CodeHandshake, false,
			"engine mismatch: server runs %s ECS=%d SD=%d TTTD=%v FastCDC=%v; client offered %s ECS=%d SD=%d TTTD=%v FastCDC=%v",
			s.opts.Algorithm, s.opts.ECS, s.opts.SD, s.opts.TTTD, s.opts.FastCDC,
			hello.Options.Algorithm, hello.Options.ECS, hello.Options.SD, hello.Options.TTTD, hello.Options.FastCDC)
		return
	}
	ss, errMsg := s.attachSession(hello)
	if errMsg != nil {
		s.cErrors.Add(1)
		send(wire.TypeError, errMsg.Marshal())
		return
	}
	ok := wire.HelloOK{
		SessionToken: ss.token,
		Window:       uint32(s.cfg.Window),
		MaxPayload:   s.cfg.MaxPayload,
		LastApplied:  ss.lastApplied,
	}
	if err := send(wire.TypeHelloOK, ok.Marshal()); err != nil {
		s.detachSession(ss)
		return
	}
	if hello.ResumeToken != 0 {
		s.cfg.Events.Info("session.resume",
			events.F("session", ss.token), events.F("applied", ss.lastApplied))
	} else {
		s.cfg.Events.Info("session.attach", events.F("session", ss.token))
	}

	for {
		f, err := read()
		if err != nil {
			if isTimeout(err) {
				// Retry-friendly: tell the client why before hanging up;
				// the session survives for ResumeTimeout.
				sendErr(wire.CodeProtocol, true, "idle timeout: no frame for %v", s.cfg.IdleTimeout)
			}
			s.detachSession(ss)
			return
		}
		start := time.Now()
		var herr error
		switch f.Type {
		case wire.TypeFileBegin:
			var fb wire.FileBegin
			if fb, herr = wire.UnmarshalFileBegin(f.Payload); herr == nil {
				herr = ss.handleFileBegin(fb, send)
			}
		case wire.TypeOffer:
			var of wire.Offer
			if of, herr = wire.UnmarshalOffer(f.Payload); herr == nil {
				herr = ss.handleOffer(of, send)
			}
		case wire.TypeChunkData:
			var cd wire.ChunkData
			if cd, herr = wire.UnmarshalChunkData(f.Payload); herr == nil {
				herr = ss.handleChunkData(cd, send)
			}
		case wire.TypeFileEnd:
			var fe wire.FileEnd
			if fe, herr = wire.UnmarshalFileEnd(f.Payload); herr == nil {
				herr = ss.handleFileEnd(fe, send)
			}
		case wire.TypeClose:
			if herr = ss.closeRequested(); herr == nil {
				s.expireSession(ss, false)
				send(wire.TypeCloseOK, nil)
				s.cfg.Events.Info("session.close",
					events.F("session", ss.token), events.F("applied", ss.lastApplied))
				return
			}
		default:
			herr = fatalf(wire.CodeProtocol, "unexpected %s frame on ingest session", wire.TypeName(f.Type))
		}
		if h := s.hFrame[f.Type]; h != nil {
			d := h.ObserveSince(start)
			s.cfg.Events.SlowOp("frame."+wire.TypeName(f.Type), d,
				events.F("session", ss.token))
		}
		if herr != nil {
			var sh *sessionShed
			if errors.As(herr, &sh) {
				// Overload shedding: report why (retryable), then park the
				// session resumable — the client backs off, reconnects with
				// its resume token and replays; no acknowledged work is at
				// risk and no queue grows while the server is behind.
				s.cErrors.Add(1)
				send(wire.TypeError, sh.msg.Marshal())
				s.detachSession(ss)
				return
			}
			var sf *sessionFatal
			if errors.As(herr, &sf) {
				s.cErrors.Add(1)
				send(wire.TypeError, sf.msg.Marshal())
				s.expireSession(ss, true)
				s.cfg.Events.Error("session.fail",
					events.F("session", ss.token), events.F("code", sf.msg.Code),
					events.F("msg", sf.msg.Msg))
			} else {
				// Send-path failure: the connection is gone; keep the
				// session resumable.
				s.detachSession(ss)
			}
			return
		}
	}
}

// attachSession resolves a Hello to a session: resuming an existing one
// or creating a fresh one, subject to draining and MaxSessions.
func (s *Server) attachSession(hello wire.Hello) (*ingestSession, *wire.ErrorMsg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if hello.ResumeToken != 0 {
		ss, ok := s.sessions[hello.ResumeToken]
		if !ok || ss.gone {
			return nil, &wire.ErrorMsg{Code: wire.CodeNotFound,
				Msg: fmt.Sprintf("no resumable session %d (expired?)", hello.ResumeToken)}
		}
		if ss.tenant != hello.Tenant {
			// A resume token must not let one tenant continue another's
			// session; answer as if the token did not exist.
			return nil, &wire.ErrorMsg{Code: wire.CodeNotFound,
				Msg: fmt.Sprintf("no resumable session %d (expired?)", hello.ResumeToken)}
		}
		if ss.attached {
			return nil, &wire.ErrorMsg{Code: wire.CodeBusy, Retryable: true,
				Msg: fmt.Sprintf("session %d already has a live connection", hello.ResumeToken)}
		}
		// Disarm the resume-expiry timer. Stop()'s return value is
		// deliberately not trusted to mean "nothing will run": the timer
		// may already have fired and be blocked on s.mu right now. The
		// epoch bump is what invalidates such an in-flight expiry — the
		// timer captured the epoch it was armed in, and expireTimerFired
		// no-ops on mismatch.
		if ss.expireTimer != nil {
			ss.expireTimer.Stop()
			ss.expireTimer = nil
		}
		ss.epoch++
		ss.attached = true
		// A fresh connection replays commands above lastApplied;
		// half-received batches from the dead connection are void.
		ss.pending = make(map[uint64]*pendingCmd)
		s.cSessionsResume.Add(1)
		s.cSessionsActive.Add(1)
		return ss, nil
	}
	if s.draining {
		return nil, &wire.ErrorMsg{Code: wire.CodeDraining, Retryable: true, Msg: "server is draining"}
	}
	if s.cfg.Durability != nil {
		// Admission control: refuse NEW sessions while the durability
		// machinery is behind budget (resumes are always honored — they
		// hold resources already, and bouncing them only adds retries).
		if reason, over := s.cfg.Durability.Overloaded(); over {
			s.cShed.Add(1)
			s.cfg.Events.Warn("server.shed", events.F("at", "attach"), events.F("reason", reason))
			return nil, &wire.ErrorMsg{Code: wire.CodeOverloaded, Retryable: true,
				Msg: "server overloaded: " + reason}
		}
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		return nil, &wire.ErrorMsg{Code: wire.CodeBusy, Retryable: true,
			Msg: fmt.Sprintf("session limit reached (%d)", s.cfg.MaxSessions)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	ss := &ingestSession{
		token:    s.tokenSrc.Add(1),
		tenant:   hello.Tenant,
		srv:      s,
		eng:      s.cfg.Engine.NewSession(),
		ctx:      ctx,
		abort:    cancel,
		attached: true,
		pending:  make(map[uint64]*pendingCmd),
	}
	s.sessions[ss.token] = ss
	s.cSessionsTotal.Add(1)
	s.cSessionsActive.Add(1)
	return ss, nil
}

// detachSession parks a session for resumption after its connection died:
// pending state is dropped (the client replays), the in-flight file feed
// stays open, and an expiry timer bounds how long that lasts. The timer
// captures the detach epoch so a later resume invalidates it even if it
// has already fired and is waiting on the mutex.
func (s *Server) detachSession(ss *ingestSession) {
	s.mu.Lock()
	if ss.gone || !ss.attached {
		s.mu.Unlock()
		return
	}
	ss.attached = false
	ss.pending = make(map[uint64]*pendingCmd)
	s.cSessionsActive.Add(-1)
	ss.epoch++
	epoch := ss.epoch
	ss.expireTimer = time.AfterFunc(s.cfg.ResumeTimeout, func() { s.expireTimerFired(ss, epoch) })
	s.mu.Unlock()
	s.cfg.Events.Info("session.detach",
		events.F("session", ss.token), events.F("resumable", s.cfg.ResumeTimeout))
}

// expireTimerFired is the resume-window expiry path. The epoch check is
// the fix for the resume-vs-expiry race: time.AfterFunc may have fired
// the timer just before a resume Stop()ped it, leaving this goroutine
// blocked on s.mu while attachSession commits the resume. Without the
// check it would then tear down — and abort the in-flight file of — a
// session that has a live connection again. The timer only acts if the
// session is still in the exact detach generation it was armed for.
func (s *Server) expireTimerFired(ss *ingestSession, epoch uint64) {
	s.mu.Lock()
	if ss.gone || ss.attached || ss.epoch != epoch {
		s.mu.Unlock()
		s.cfg.Events.Debug("session.expire_stale",
			events.F("session", ss.token), events.F("armed_epoch", epoch))
		return
	}
	s.mu.Unlock()
	s.cfg.Events.Info("session.expire", events.F("session", ss.token))
	s.expireSession(ss, true)
}

// expireSession removes a session for good: on abort the in-flight file
// is cancelled; on orderly close there is none.
func (s *Server) expireSession(ss *ingestSession, aborting bool) {
	s.mu.Lock()
	if ss.gone {
		s.mu.Unlock()
		return
	}
	if aborting && ss.attached {
		// Called from Close() while a handler owns the session: the
		// handler's connection is being torn down; it will not touch the
		// session again once its read fails against the closed conn.
		// Session teardown still proceeds here.
	}
	ss.gone = true
	ss.epoch++ // invalidate any armed (or fired-and-blocked) expiry timer
	if ss.expireTimer != nil {
		ss.expireTimer.Stop()
		ss.expireTimer = nil
	}
	if ss.attached {
		s.cSessionsActive.Add(-1)
		ss.attached = false
	}
	delete(s.sessions, ss.token)
	s.mu.Unlock()
	ss.abort()
	if aborting {
		ss.abortOpenFile()
	}
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// ---------------------------------------------------------------------------
// Restore serving.

// serveRestoreConn answers List and Restore requests until the client
// hangs up or closes. Everything is scoped to tenant's namespace: List
// returns only (and strips the prefix from) the tenant's names, and
// Restore resolves the request inside the tenant's slice of the store —
// another tenant's files are unreachable, not merely hidden.
func (s *Server) serveRestoreConn(tenant string, read func() (wire.Frame, error), send sender,
	sendErr func(code uint16, retryable bool, format string, args ...any)) {
	for {
		f, err := read()
		if err != nil {
			return
		}
		switch f.Type {
		case wire.TypeListReq:
			all := s.cfg.Engine.Disk().Names(simdisk.FileManifest)
			names := make([]string, 0, len(all))
			for _, n := range all {
				if stripped, ok := wire.NSStrip(tenant, n); ok {
					names = append(names, stripped)
				}
			}
			sort.Strings(names)
			if err := send(wire.TypeListResp, wire.ListResp{Names: names}.Marshal()); err != nil {
				return
			}
		case wire.TypeRestoreReq:
			req, err := wire.UnmarshalRestoreReq(f.Payload)
			if err != nil {
				sendErr(wire.CodeProtocol, false, "bad RestoreReq: %v", err)
				return
			}
			req.Name = wire.NSJoin(tenant, req.Name)
			if err := s.streamRestore(req, send); err != nil {
				var sf *sessionFatal
				if errors.As(err, &sf) {
					s.cErrors.Add(1)
					send(wire.TypeError, sf.msg.Marshal())
					continue // stream not corrupted: error sent before or instead of End
				}
				return // transport failure
			}
		case wire.TypeRestoreRange:
			req, err := wire.UnmarshalRestoreRange(f.Payload)
			if err != nil {
				sendErr(wire.CodeProtocol, false, "bad RestoreRange: %v", err)
				return
			}
			req.Name = wire.NSJoin(tenant, req.Name)
			if err := s.streamRestoreRange(req, send); err != nil {
				var sf *sessionFatal
				if errors.As(err, &sf) {
					s.cErrors.Add(1)
					send(wire.TypeError, sf.msg.Marshal())
					continue
				}
				return
			}
		case wire.TypeClose:
			send(wire.TypeCloseOK, nil)
			return
		default:
			sendErr(wire.CodeProtocol, false, "unexpected %s frame on restore session", wire.TypeName(f.Type))
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Peer plane.

// peerChunkOverhead is the per-chunk wire cost inside a PeerChunks
// payload: one u32 index plus the chunk's u32 length prefix.
const peerChunkOverhead = 8

// servePeerConn answers the trusted interior sub-protocol a cluster
// gateway speaks to the shard that owns a chunk-hash range: PeerFetch
// asks which of a batch of chunk hashes this shard's wire cache holds
// (answered with the bytes), PeerPut seeds freshly uploaded chunks into
// the cache. Both operate strictly on the chunk cache — the peer plane
// is a bandwidth optimization, never a durability statement, so a miss
// is always a correct answer. Chunks arriving by PeerPut are re-hashed
// here: a trusted link is still not a trusted computation, and a cache
// poisoned with bytes filed under the wrong address would silently
// corrupt every later negotiation that hits it.
func (s *Server) servePeerConn(read func() (wire.Frame, error), send sender,
	sendErr func(code uint16, retryable bool, format string, args ...any)) {
	// At most one migrated-file ingest streams per peer connection; if the
	// connection dies mid-stream the half-fed file must be aborted, never
	// committed.
	var mig *peerMigration
	defer func() {
		if mig != nil {
			mig.cancel()
		}
	}()
	for {
		f, err := read()
		if err != nil {
			return
		}
		if handled, fatal := s.handleMigrateFrames(f, &mig, send, sendErr); handled {
			if fatal {
				return
			}
			continue
		}
		switch f.Type {
		case wire.TypePeerFetch:
			pf, err := wire.UnmarshalPeerFetch(f.Payload)
			if err != nil {
				sendErr(wire.CodeProtocol, false, "bad PeerFetch: %v", err)
				return
			}
			resp := wire.PeerChunks{}
			// Keep the reply inside the frame payload cap: 4 bytes for each
			// of the two count prefixes, then index+length+bytes per chunk.
			budget := int(s.cfg.MaxPayload) - 8
			for i, e := range pf.Entries {
				data, ok := s.cache.get(e.Hash)
				if !ok || uint32(len(data)) != e.Size {
					s.cPeerMissed.Add(1)
					continue
				}
				if budget -= peerChunkOverhead + len(data); budget < 0 {
					// Over budget: the rest of the batch reads as a miss and
					// the gateway falls back to the client's copy. Correct,
					// just less saved bandwidth.
					s.cPeerMissed.Add(int64(len(pf.Entries) - i))
					break
				}
				resp.Indices = append(resp.Indices, uint32(i))
				resp.Chunks = append(resp.Chunks, data)
				s.cPeerServed.Add(1)
			}
			if err := send(wire.TypePeerChunks, resp.Marshal()); err != nil {
				return
			}
		case wire.TypePeerPut:
			pp, err := wire.UnmarshalPeerPut(f.Payload)
			if err != nil {
				sendErr(wire.CodeProtocol, false, "bad PeerPut: %v", err)
				return
			}
			for _, chunk := range pp.Chunks {
				s.cache.put(hashutil.SumBytes(chunk), chunk)
			}
			s.cPeerPut.Add(int64(len(pp.Chunks)))
			if err := send(wire.TypePeerPutOK, nil); err != nil {
				return
			}
		case wire.TypeClose:
			send(wire.TypeCloseOK, nil)
			return
		default:
			sendErr(wire.CodeProtocol, false, "unexpected %s frame on peer session", wire.TypeName(f.Type))
			return
		}
	}
}

// restoreStore builds the store view remote restores read through. The
// manifest format is detected from the store contents — a dedupd can be
// pointed at a store written by another tool or an older engine whose
// manifests are not FormatMHD, and the verifying path decodes manifests,
// so hardcoding FormatMHD here silently misparsed entries. When
// detection is ambiguous the engine's own write format (FormatMHD) is
// the only consistent choice.
func (s *Server) restoreStore() *store.Store {
	disk := s.cfg.Engine.Disk()
	format, ok := store.DetectFormat(disk)
	if !ok {
		format = store.FormatMHD
	}
	st := store.New(disk, format)
	st.SetEventLog(s.cfg.Events)
	return st
}

// streamRestore rebuilds one file through the engine's store — through
// the verifying path when requested — and streams it as RestoreData
// frames followed by RestoreEnd carrying the whole-file size and SHA-1.
// The rebuild runs through the batched restore pipeline: up to
// cfg.RestoreWorkers container reads proceed out of order while the
// pipeline's in-order emitter feeds the frameWriter, so RestoreData
// frames always carry the file's bytes in order.
func (s *Server) streamRestore(req wire.RestoreReq, send sender) error {
	if !s.cfg.Engine.Disk().Exists(simdisk.FileManifest, req.Name) {
		return fatalf(wire.CodeNotFound, "no such file %q", req.Name)
	}
	start := time.Now()
	st := s.restoreStore()
	fw := &frameWriter{send: send, max: int(s.cfg.MaxPayload) - restoreDataOverhead, hash: hashutil.NewHasher()}
	ropts := store.RestoreOptions{Workers: s.cfg.RestoreWorkers, WindowBytes: s.cfg.RestoreWindowBytes}
	var rerr error
	if req.Verify {
		// The PR 2 verified-restore path: every chunk range is re-hashed
		// against the content address its manifest vouches for, and the
		// bytes streamed are the ones that hashed clean.
		rerr = store.NewVerifier(st, store.VerifyOpts{}).RestoreFileOpts(req.Name, fw, ropts)
	} else {
		rerr = st.RestoreFileOpts(req.Name, fw, ropts)
	}
	if rerr != nil {
		return fatalf(wire.CodeInternal, "restore %q: %v", req.Name, rerr)
	}
	if err := fw.flush(); err != nil {
		return err
	}
	s.cRestores.Add(1)
	s.cRestoreBytes.Add(int64(fw.total))
	d := s.hRestore.ObserveSince(start)
	s.cfg.Events.SlowOp("restore", d,
		events.F("name", req.Name), events.F("bytes", fw.total))
	end := wire.RestoreEnd{TotalBytes: fw.total, Sum: fw.hash.Sum()}
	return send(wire.TypeRestoreEnd, end.Marshal())
}

// streamRestoreRange is streamRestore for a byte range: the store's
// RestoreRange descends the file's recipe (O(log n) recipe-chunk reads on
// a tree; a linear recipe decode on a flat manifest) and only the covering
// sub-manifest flows through the restore pipeline. The reply stream is the
// whole-file grammar — RestoreData frames then RestoreEnd whose size and
// SHA-1 describe the range actually sent (ranges past EOF clamp, so a
// client can probe with a huge length and trust the End frame).
func (s *Server) streamRestoreRange(req wire.RestoreRange, send sender) error {
	if !s.cfg.Engine.Disk().Exists(simdisk.FileManifest, req.Name) {
		return fatalf(wire.CodeNotFound, "no such file %q", req.Name)
	}
	off := int64(req.Offset)
	length := int64(-1)
	if req.Length != wire.RestoreToEOF {
		length = int64(req.Length)
	}
	start := time.Now()
	st := s.restoreStore()
	fw := &frameWriter{send: send, max: int(s.cfg.MaxPayload) - restoreDataOverhead, hash: hashutil.NewHasher()}
	ropts := store.RestoreOptions{Workers: s.cfg.RestoreWorkers, WindowBytes: s.cfg.RestoreWindowBytes}
	var rerr error
	if req.Verify {
		_, rerr = store.NewVerifier(st, store.VerifyOpts{}).RestoreRange(req.Name, off, length, fw, ropts)
	} else {
		_, rerr = st.RestoreRange(req.Name, off, length, fw, ropts)
	}
	if rerr != nil {
		return fatalf(wire.CodeInternal, "restore %q [%d,+%d): %v", req.Name, off, length, rerr)
	}
	if err := fw.flush(); err != nil {
		return err
	}
	s.cRestores.Add(1)
	s.cRestoreBytes.Add(int64(fw.total))
	d := s.hRestore.ObserveSince(start)
	s.cfg.Events.SlowOp("restore_range", d,
		events.F("name", req.Name), events.F("offset", off), events.F("bytes", fw.total))
	end := wire.RestoreEnd{TotalBytes: fw.total, Sum: fw.hash.Sum()}
	return send(wire.TypeRestoreEnd, end.Marshal())
}

// frameWriter adapts the restore io.Writer to RestoreData frames bounded
// by the payload cap, hashing everything it emits.
type frameWriter struct {
	send  sender
	max   int
	hash  *hashutil.Hasher
	total uint64
	buf   []byte
}

func (w *frameWriter) Write(p []byte) (int, error) {
	if w.max <= 0 {
		// Defensive: fillDefaults rejects MaxPayload below the floor, so
		// this cannot happen through New; without the guard a non-positive
		// budget turns the emit loop below into an infinite loop.
		return 0, fmt.Errorf("server: restore frame budget %d is not positive", w.max)
	}
	w.hash.Write(p)
	w.total += uint64(len(p))
	w.buf = append(w.buf, p...)
	for len(w.buf) >= w.max {
		if err := w.emit(w.buf[:w.max]); err != nil {
			return 0, err
		}
		w.buf = w.buf[w.max:]
	}
	return len(p), nil
}

func (w *frameWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	err := w.emit(w.buf)
	w.buf = nil
	return err
}

func (w *frameWriter) emit(b []byte) error {
	return w.send(wire.TypeRestoreData, wire.RestoreData{Data: b}.Marshal())
}

var _ io.Writer = (*frameWriter)(nil)
