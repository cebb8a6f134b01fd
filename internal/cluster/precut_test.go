package cluster_test

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mhdedup/internal/chunker"
	"mhdedup/internal/cluster"
	"mhdedup/internal/core"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/wire"
)

// gwRaw dials the gateway and returns frame write/read helpers for
// protocol-level tests that drive the wire by hand.
func gwRaw(t *testing.T, addr string) (func(uint8, []byte), func() wire.Frame) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	write := func(typ uint8, payload []byte) {
		t.Helper()
		if _, err := wire.WriteFrame(c, typ, payload); err != nil {
			t.Fatalf("write %s: %v", wire.TypeName(typ), err)
		}
	}
	read := func() wire.Frame {
		t.Helper()
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		f, err := wire.ReadFrame(c, wire.DefaultMaxPayload)
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		return f
	}
	return write, read
}

// TestClusterHostileCutsRefused drives hostile chunk sizes through the
// gateway: the shard's cut-bound check refuses them and the gateway
// passes the integrity error on to the client; legal sequences (exact
// bounds, a short final chunk) ingest and restore.
func TestClusterHostileCutsRefused(t *testing.T) {
	tc := startCluster(t, 2, nil)
	min, max, err := chunker.Params{ECS: int(tc.options.ECS)}.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	b := genData
	cases := []struct {
		name   string
		offers [][][]byte
		refuse bool
	}{
		{"one-byte-chunks", [][][]byte{{b(1, 1), b(2, 1)}}, true},
		{"oversize-chunk", [][][]byte{{b(4, max+1)}}, true},
		{"short-then-more", [][][]byte{{b(5, min), b(6, min-1), b(7, min)}}, true},
		{"short-then-more-across-offers", [][][]byte{{b(8, min-1)}, {b(9, min)}}, true},
		{"bounds-exact", [][][]byte{{b(10, min), b(11, max)}, {b(12, 1)}}, false},
	}
	for _, hc := range cases {
		t.Run(hc.name, func(t *testing.T) {
			write, read := gwRaw(t, tc.gwAddr)
			write(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest, Options: tc.options}.Marshal())
			if f := read(); f.Type != wire.TypeHelloOK {
				t.Fatalf("expected HelloOK, got %s", wire.TypeName(f.Type))
			}
			name := "cut-" + hc.name
			write(wire.TypeFileBegin, wire.FileBegin{Seq: 1, Name: name}.Marshal())
			if f := read(); f.Type != wire.TypeAck {
				t.Fatalf("expected Ack, got %s", wire.TypeName(f.Type))
			}
			var whole []byte
			seq := uint64(2)
			for i, chunks := range hc.offers {
				entries := make([]wire.OfferEntry, len(chunks))
				for j, c := range chunks {
					entries[j] = wire.OfferEntry{Hash: hashutil.SumBytes(c), Size: uint32(len(c))}
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
					for j, idx := range need.Indices {
						data[j] = chunks[idx]
					}
					write(wire.TypeChunkData, wire.ChunkData{Seq: seq, Chunks: data}.Marshal())
				}
				f = read()
				if hc.refuse && i == len(hc.offers)-1 {
					if f.Type != wire.TypeError {
						t.Fatalf("expected Error, got %s", wire.TypeName(f.Type))
					}
					em, err := wire.UnmarshalError(f.Payload)
					if err != nil {
						t.Fatal(err)
					}
					if em.Code != wire.CodeIntegrity || em.Retryable {
						t.Fatalf("error = code %d retryable %v (%s), want a non-retryable integrity error",
							em.Code, em.Retryable, em.Msg)
					}
					t.Logf("refused: %s", em.Msg)
					return
				}
				if f.Type != wire.TypeAck {
					t.Fatalf("offer %d: expected Ack, got %s", seq, wire.TypeName(f.Type))
				}
				for _, c := range chunks {
					whole = append(whole, c...)
				}
				seq++
			}
			write(wire.TypeFileEnd, wire.FileEnd{Seq: seq, TotalBytes: uint64(len(whole)),
				Sum: hashutil.SumBytes(whole)}.Marshal())
			if f := read(); f.Type != wire.TypeAck {
				t.Fatalf("FileEnd: expected Ack, got %s", wire.TypeName(f.Type))
			}
			if got := restoreOne(t, tc.clientConfig(), name); !bytes.Equal(got, whole) {
				t.Fatal("legal cut sequence does not restore through the gateway")
			}
		})
	}
}

// TestClusterStoreMatchesLocalPutFile: at R=1 and R=2, with the client
// connection killed mid-file, every shard's store must be object-
// identical to local PutFile of exactly the files the shard holds, in
// ingest order — the shards store the client's cuts, which are the
// engine's cuts.
func TestClusterStoreMatchesLocalPutFile(t *testing.T) {
	files := map[string][]byte{}
	var order []string
	for i, img := range []string{"img-a", "img-b"} {
		gen1 := genData(int64(81+i), 1<<20)
		files[img+"-gen1"] = gen1
		files[img+"-gen2"] = mutate(gen1, int64(91+i), 8, 4096)
	}
	order = []string{"img-a-gen1", "img-b-gen1", "img-a-gen2", "img-b-gen2"}
	for _, r := range []int{1, 2} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			tc := startCluster(t, 2, func(cfg *cluster.GatewayConfig) { cfg.Replication = r })
			cfg := tc.clientConfig()
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
			if st := putAll(t, cfg, files, order); st.Reconnects == 0 {
				t.Fatal("fault injection did not trigger a resume; the test proved nothing")
			}
			copies := 0
			for i, shardEng := range tc.engines {
				local := newEngine(t)
				for _, name := range order {
					if shardEng.Disk().Exists(simdisk.FileManifest, name) {
						copies++
						if err := local.PutFile(name, bytes.NewReader(files[name])); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, e := range []*core.Dedup{shardEng, local} {
					if err := e.Finish(); err != nil {
						t.Fatal(err)
					}
				}
				compareStores(t, fmt.Sprintf("shard %d", i), shardEng, local)
			}
			if copies != r*len(order) {
				t.Fatalf("shards hold %d file copies, want %d at R=%d", copies, r*len(order), r)
			}
		})
	}
}

// compareStores asserts two engines' disks hold exactly the same objects.
func compareStores(t *testing.T, label string, a, b *core.Dedup) {
	t.Helper()
	for _, cat := range []simdisk.Category{simdisk.Data, simdisk.Hook, simdisk.Manifest, simdisk.FileManifest} {
		an, bn := a.Disk().Names(cat), b.Disk().Names(cat)
		if len(an) != len(bn) {
			t.Fatalf("%s: %s: %d objects vs %d locally", label, cat, len(an), len(bn))
		}
		for _, n := range an {
			ad, err := a.Disk().Read(cat, n)
			if err != nil {
				t.Fatal(err)
			}
			bd, err := b.Disk().Read(cat, n)
			if err != nil {
				t.Fatalf("%s: %s/%s missing from the local store: %v", label, cat, n, err)
			}
			if !bytes.Equal(ad, bd) {
				t.Fatalf("%s: %s/%s differs from the local store", label, cat, n)
			}
		}
	}
}
