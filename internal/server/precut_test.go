package server

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mhdedup/internal/client"
	"mhdedup/internal/core"
	"mhdedup/internal/events"
	"mhdedup/internal/exp"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/wire"
)

// engineWith builds a test engine of the given algorithm and chunker.
func engineWith(t *testing.T, algo string, tttd, fastCDC bool) *core.Dedup {
	t.Helper()
	p := exp.DefaultParams(algo, 4096, 64, 64<<20)
	p.TTTD, p.FastCDC = tttd, fastCDC
	eng, err := exp.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return eng.(*core.Dedup)
}

// offerRaw sends one Offer of chunks at seq, answers the Need with the
// requested bytes and returns the frame that follows (Ack or Error).
func offerRaw(t *testing.T, write func(uint8, []byte), read func() wire.Frame, seq uint64, chunks [][]byte) wire.Frame {
	t.Helper()
	entries := make([]wire.OfferEntry, len(chunks))
	for i, c := range chunks {
		entries[i] = wire.OfferEntry{Hash: hashutil.SumBytes(c), Size: uint32(len(c))}
	}
	write(wire.TypeOffer, wire.Offer{Seq: seq, Entries: entries}.Marshal())
	f := read()
	if f.Type != wire.TypeNeed {
		t.Fatalf("offer %d: expected Need, got %s", seq, wire.TypeName(f.Type))
	}
	need, err := wire.UnmarshalNeed(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(need.Indices) > 0 {
		data := make([][]byte, len(need.Indices))
		for i, idx := range need.Indices {
			data[i] = chunks[idx]
		}
		write(wire.TypeChunkData, wire.ChunkData{Seq: seq, Chunks: data}.Marshal())
	}
	return read()
}

func TestNewRefusesUnnegotiableChunker(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Poly = 0x3DA3358B4DC173 // a custom polynomial Hello cannot carry
	eng, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Engine: eng, Registry: metrics.NewRegistry()}); err == nil ||
		!strings.Contains(err.Error(), "polynomial") {
		t.Fatalf("New over a custom-polynomial engine = %v, want a polynomial refusal", err)
	}
	cfg.Poly = 0
	eng, err = core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Engine: eng, Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if srv.minChunk != cfg.ECS/4 || srv.maxChunk != cfg.ECS*4 {
		t.Fatalf("cut bounds = [%d, %d], want the chunker's resolved [%d, %d]",
			srv.minChunk, srv.maxChunk, cfg.ECS/4, cfg.ECS*4)
	}
}

// hostileCut is one raw-frame cut sequence: offers (one chunk list per
// Offer) and whether the last offer must be refused.
type hostileCut struct {
	name   string
	offers [][][]byte
	refuse bool
}

// hostileCuts returns the cut-bound cases for chunk sizes min..max.
func hostileCuts(min, max int) []hostileCut {
	b := func(seed int64, n int) []byte { return genData(seed, n) }
	return []hostileCut{
		{"one-byte-chunks", [][][]byte{{b(1, 1), b(2, 1)}}, true},
		{"empty-chunk", [][][]byte{{b(3, min), {}}}, true},
		{"oversize-chunk", [][][]byte{{b(4, max+1)}}, true},
		{"short-then-more", [][][]byte{{b(5, min), b(6, min-1), b(7, min)}}, true},
		{"short-then-more-across-offers", [][][]byte{{b(8, min-1)}, {b(9, min)}}, true},
		{"bounds-exact", [][][]byte{{b(10, min), b(11, max)}, {b(12, 1)}}, false},
		{"one-byte-file", [][][]byte{{b(13, 1)}}, false},
	}
}

// runHostileCut drives one case over a fresh ingest session at addr and
// checks the outcome: an integrity refusal, or a clean, restorable file.
func runHostileCut(t *testing.T, addr string, opts wire.EngineOptions, hc hostileCut) {
	t.Helper()
	_, write, read := rawConn(t, addr)
	write(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest, Options: opts}.Marshal())
	if f := read(); f.Type != wire.TypeHelloOK {
		t.Fatalf("expected HelloOK, got %s", wire.TypeName(f.Type))
	}
	name := "cut-" + hc.name
	write(wire.TypeFileBegin, wire.FileBegin{Seq: 1, Name: name}.Marshal())
	if f := read(); f.Type != wire.TypeAck {
		t.Fatalf("expected Ack, got %s", wire.TypeName(f.Type))
	}
	h := hashutil.NewHasher()
	var total uint64
	seq := uint64(2)
	for i, chunks := range hc.offers {
		f := offerRaw(t, write, read, seq, chunks)
		if hc.refuse && i == len(hc.offers)-1 {
			em := expectError(t, f, wire.CodeIntegrity, false)
			t.Logf("refused: %s", em.Msg)
			return
		}
		if f.Type != wire.TypeAck {
			em, _ := wire.UnmarshalError(f.Payload)
			t.Fatalf("offer %d: expected Ack, got %s (%s)", seq, wire.TypeName(f.Type), em.Msg)
		}
		for _, c := range chunks {
			h.Write(c)
			total += uint64(len(c))
		}
		seq++
	}
	write(wire.TypeFileEnd, wire.FileEnd{Seq: seq, TotalBytes: total, Sum: h.Sum()}.Marshal())
	if f := read(); f.Type != wire.TypeAck {
		em, _ := wire.UnmarshalError(f.Payload)
		t.Fatalf("FileEnd: expected Ack, got %s (%s)", wire.TypeName(f.Type), em.Msg)
	}
}

// TestHostileCutsRefused: the server no longer re-derives cut points, so
// it bounds the client's — empty and oversize chunks and any chunk after
// a short one are integrity errors, while every legal sequence (exact
// bounds, a short final chunk) still ingests.
func TestHostileCutsRefused(t *testing.T) {
	srv, eng, addr := startServer(t, nil)
	for _, hc := range hostileCuts(srv.minChunk, srv.maxChunk) {
		t.Run(hc.name, func(t *testing.T) { runHostileCut(t, addr, srv.Options(), hc) })
	}
	var got bytes.Buffer
	if err := eng.Restore("cut-bounds-exact", &got); err != nil {
		t.Fatalf("legal cut sequence not restorable: %v", err)
	}
}

// TestWireStoreMatchesLocalPutFile is the wire-vs-local differential gate
// for every chunker option and both session-capable engines: a two-
// generation backup pushed over the wire — with the connection killed
// mid-file, so the session resumes and replays — must leave a store
// object-identical to local PutFile of the same bytes, because the
// client's cuts are the engine's cuts.
func TestWireStoreMatchesLocalPutFile(t *testing.T) {
	gen1 := genData(41, 1<<20)
	gen2 := mutate(gen1, 42, 8, 4096)
	files := []struct {
		name string
		data []byte
	}{{"img-gen1", gen1}, {"img-gen2", gen2}}
	for _, algo := range []string{exp.AlgoMHD, exp.AlgoSIMHD} {
		for _, chunking := range []struct {
			name          string
			tttd, fastCDC bool
		}{{"rabin", false, false}, {"tttd", true, false}, {"fastcdc", false, true}} {
			t.Run(algo+"/"+chunking.name, func(t *testing.T) {
				wireEng := engineWith(t, algo, chunking.tttd, chunking.fastCDC)
				srv, addr := serveEngine(t, wireEng, nil)
				cfg := clientConfig(srv, addr)
				var once sync.Once
				cfg.Dial = func(a string) (net.Conn, error) {
					nc, err := net.Dial("tcp", a)
					if err != nil {
						return nil, err
					}
					var conn net.Conn = nc
					once.Do(func() { conn = &killConn{Conn: nc, budget: 600 << 10} })
					return conn, nil
				}
				ing, err := client.Connect(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range files {
					if err := ing.PutFile(f.name, bytes.NewReader(f.data)); err != nil {
						t.Fatal(err)
					}
				}
				if err := ing.Close(); err != nil {
					t.Fatal(err)
				}
				if ing.Stats().Reconnects == 0 {
					t.Fatal("fault injection did not trigger a resume; the test proved nothing")
				}

				localEng := engineWith(t, algo, chunking.tttd, chunking.fastCDC)
				for _, f := range files {
					if err := localEng.PutFile(f.name, bytes.NewReader(f.data)); err != nil {
						t.Fatal(err)
					}
				}
				for _, e := range []*core.Dedup{wireEng, localEng} {
					if err := e.Finish(); err != nil {
						t.Fatal(err)
					}
				}
				compareDisks(t, wireEng, localEng)
			})
		}
	}
}

// waitForGoroutines polls until the goroutine count is back to at most
// baseline — the oracle that the engine feed goroutine exited.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines = %d, baseline %d:\n%s", runtime.NumGoroutine(), baseline,
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitForStack polls the goroutine dump until one goroutine's stack
// contains every marker — how a test waits for a goroutine to be blocked
// at a known point.
func waitForStack(t *testing.T, markers ...string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	buf := make([]byte, 1<<20)
	for time.Now().Before(deadline) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			found := true
			for _, m := range markers {
				found = found && strings.Contains(g, m)
			}
			if found {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no goroutine blocked at %q", markers)
}

// eventField returns the formatted value of key in the latest event of
// type typ, and whether such an event exists.
func eventField(log *events.Log, typ, key string) (string, bool) {
	var val string
	var found bool
	for _, e := range log.Recent() {
		if e.Type != typ {
			continue
		}
		for _, f := range e.Fields {
			if f.Key == key {
				val, found = fmt.Sprint(f.Value), true
			}
		}
	}
	return val, found
}

// TestFeedTeardownCloseMidApply hard-stops the server while a handler is
// blocked in apply handing an Offer batch to a stalled engine (the
// Server.Close-vs-apply race site). The handler must report the engine's
// own error, and the feed goroutine must exit.
func TestFeedTeardownCloseMidApply(t *testing.T) {
	baseline := runtime.NumGoroutine()
	evlog := events.New(events.Options{Level: events.LevelDebug})
	eng := newTestEngine(t)
	data := genData(51, 4<<20)
	// A local copy makes the wire copy a duplicate, so the engine reaches
	// the disk (hook and manifest reads) mid-file, where the hook stalls it.
	if err := eng.PutFile("local", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	stalled, release := make(chan struct{}), make(chan struct{})
	var stallOnce sync.Once
	eng.Disk().SetFailureHook(func(op simdisk.Op, cat simdisk.Category, name string) error {
		if cat == simdisk.Hook || cat == simdisk.Manifest {
			stallOnce.Do(func() {
				close(stalled)
				<-release
			})
		}
		return nil
	})
	srv, addr := serveEngine(t, eng, func(c *Config) { c.Events = evlog })
	cfg := clientConfig(srv, addr)
	cfg.RetryAttempts = 1
	putDone := make(chan error, 1)
	go func() {
		ing, err := client.Connect(cfg)
		if err == nil {
			err = ing.PutFile("wire", bytes.NewReader(data))
			ing.Close()
		}
		putDone <- err
	}()
	<-stalled
	// The handler fills the feed and blocks in apply behind the engine.
	waitForStack(t, "[select", ").apply(")
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	// Close has cancelled the file and waits for the engine goroutine.
	waitForStack(t, "(*openFile).stop(")
	close(release)
	<-closed
	if err := <-putDone; err == nil {
		t.Fatal("PutFile succeeded across a server Close")
	}
	msg, ok := eventField(evlog, "session.fail", "msg")
	if !ok || !strings.Contains(msg, `ingest of "wire" failed: context canceled`) {
		t.Fatalf("session.fail msg = %q (present %v), want the engine's cancellation", msg, ok)
	}
	if errStr, _ := eventField(evlog, "session.file_abort", "err"); errStr != "context canceled" {
		t.Fatalf("session.file_abort err = %q, want the engine's cancellation", errStr)
	}
	waitForGoroutines(t, baseline)
}

// TestFeedTeardownResumeExpiryMidFile abandons a connection mid-file and
// lets the resume window run out: the expiry must cancel the engine
// ingest blocked on the feed, log the engine's error and leave no
// goroutine behind.
func TestFeedTeardownResumeExpiryMidFile(t *testing.T) {
	baseline := runtime.NumGoroutine()
	evlog := events.New(events.Options{Level: events.LevelDebug})
	srv, eng, addr := startServer(t, func(c *Config) {
		c.Events = evlog
		c.ResumeTimeout = 100 * time.Millisecond
	})
	conn, write, read := rawConn(t, addr)
	write(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest, Options: srv.Options()}.Marshal())
	if f := read(); f.Type != wire.TypeHelloOK {
		t.Fatalf("expected HelloOK, got %s", wire.TypeName(f.Type))
	}
	write(wire.TypeFileBegin, wire.FileBegin{Seq: 1, Name: "half"}.Marshal())
	expectAck(t, read, 1)
	if f := offerRaw(t, write, read, 2, [][]byte{genData(61, 4096), genData(62, 4096)}); f.Type != wire.TypeAck {
		t.Fatalf("expected Ack, got %s", wire.TypeName(f.Type))
	}
	conn.Close()
	waitForEvent(t, evlog, "session.file_abort")
	if errStr, _ := eventField(evlog, "session.file_abort", "err"); errStr != "context canceled" {
		t.Fatalf("session.file_abort err = %q, want the engine's cancellation", errStr)
	}
	if eng.Disk().Exists(simdisk.FileManifest, "half") {
		t.Fatal("an expired half-file left a restorable manifest")
	}
	srv.Close()
	waitForGoroutines(t, baseline)
}

// TestFeedTeardownEngineDiskError fails the engine's disk mid-file — a
// manifest read while it extends a duplicate match, and the container
// write at file end. The client must get the engine's real error, and
// the feed goroutine must exit.
func TestFeedTeardownEngineDiskError(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   simdisk.Op
		cat  simdisk.Category
	}{
		{"manifest-read", simdisk.OpRead, simdisk.Manifest},
		{"container-write", simdisk.OpCreate, simdisk.Data},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			eng := newTestEngine(t)
			data := genData(71, 2<<20)
			if tc.cat == simdisk.Manifest {
				// Duplicate content drives the engine through manifest
				// loads mid-file.
				if err := eng.PutFile("local", bytes.NewReader(data)); err != nil {
					t.Fatal(err)
				}
			}
			eng.Disk().SetFailureHook(func(op simdisk.Op, cat simdisk.Category, name string) error {
				if op == tc.op && cat == tc.cat {
					return simdisk.ErrInjected
				}
				return nil
			})
			srv, addr := serveEngine(t, eng, nil)
			ing, err := client.Connect(clientConfig(srv, addr))
			if err != nil {
				t.Fatal(err)
			}
			err = ing.PutFile("wire", bytes.NewReader(data))
			if err == nil || !strings.Contains(err.Error(), `ingest of "wire" failed`) ||
				!strings.Contains(err.Error(), simdisk.ErrInjected.Error()) {
				t.Fatalf("PutFile = %v, want the engine's injected disk error", err)
			}
			ing.Close()
			srv.Close()
			waitForGoroutines(t, baseline)
		})
	}
}
