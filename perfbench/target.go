package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"

	"mhdedup/dedup"
	"mhdedup/internal/client"
	"mhdedup/internal/cluster"
	"mhdedup/internal/core"
	"mhdedup/internal/metrics"
	"mhdedup/internal/server"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
)

// restoreOpts are the restore-pipeline settings a served restore uses
// (server.Config defaults); the local target restores with the same.
var restoreOpts = store.RestoreOptions{Workers: 4}

// target is the system under test as the benchmark's one caller sees it.
type target interface {
	put(name string, r io.Reader) error
	// finish ends an ingest session: Engine.Finish locally, an orderly
	// client Close over the wire.
	finish() error
	// restore rebuilds a whole image: through the verifying path when
	// served, through Engine.Restore locally.
	restore(name string, w io.Writer) error
	// restoreRange rebuilds a byte range without verification, as
	// cmd/restore does by default.
	restoreRange(name string, off, n int64, w io.Writer) error
	engines() []dedup.Engine
	close() error
}

// localTarget is one in-memory MHD engine called directly.
type localTarget struct {
	eng dedup.Engine
}

func newLocalTarget() (*localTarget, error) {
	eng, err := dedup.New(dedup.MHD, dedup.Options{})
	if err != nil {
		return nil, err
	}
	return &localTarget{eng: eng}, nil
}

func (t *localTarget) put(name string, r io.Reader) error { return t.eng.PutFile(name, r) }
func (t *localTarget) finish() error                      { return t.eng.Finish() }
func (t *localTarget) engines() []dedup.Engine            { return []dedup.Engine{t.eng} }
func (t *localTarget) close() error                       { return nil }

func (t *localTarget) restore(name string, w io.Writer) error { return t.eng.Restore(name, w) }

func (t *localTarget) restoreRange(name string, off, n int64, w io.Writer) error {
	_, err := store.New(t.eng.Disk(), store.FormatMHD).RestoreRange(name, off, n, w, restoreOpts)
	return err
}

// netTarget is dedupd shards served in-process over loopback, each on a
// write-ahead-logged, recipe-tree store, with a gateway in front when
// there is more than one shard. One client.Ingestor carries an ingest
// session; restores open their own connections, as cmd/restore does.
type netTarget struct {
	servers []*server.Server
	engs    []*core.Dedup
	durs    []*dedup.Durability
	regs    []*metrics.Registry
	gw      *cluster.Gateway
	gwReg   *metrics.Registry
	cfg     client.Config
	ing     *client.Ingestor
	sent    client.Stats // from closed ingest sessions
	serving sync.WaitGroup
	serveMu sync.Mutex
	serveEr error
}

// startNet mounts shards stores under dir and serves them; replication
// > 0 puts a gateway with that replication factor in front.
func startNet(dir string, shards, replication int) (*netTarget, error) {
	t := &netTarget{}
	var ids []cluster.Shard
	for i := 0; i < shards; i++ {
		// Background flushing and compaction stay off so their timing
		// cannot land inside a run at random; the group commit before
		// every FileEnd ack, the path an acked ingest pays, stays on.
		eng, dur, _, err := dedup.ResumeDurable(dedup.MHD,
			dedup.Options{IngestWorkers: 16, RecipeTrees: true},
			filepath.Join(dir, fmt.Sprintf("s%d", i)),
			dedup.DurabilityOptions{FlushInterval: -1, Registry: metrics.NewRegistry()})
		if err != nil {
			return nil, errors.Join(err, t.close())
		}
		t.durs = append(t.durs, dur)
		reg := metrics.NewRegistry()
		srv, err := server.New(server.Config{Engine: eng.(*core.Dedup), Durability: dur, Registry: reg})
		if err != nil {
			return nil, errors.Join(err, t.close())
		}
		addr, err := t.serve(srv.Serve)
		if err != nil {
			return nil, errors.Join(err, t.close())
		}
		t.servers, t.engs, t.regs = append(t.servers, srv), append(t.engs, eng.(*core.Dedup)), append(t.regs, reg)
		ids = append(ids, cluster.Shard{ID: fmt.Sprintf("s%d", i), Addr: addr})
	}
	t.cfg = client.Config{Addr: ids[0].Addr, Options: t.servers[0].Options()}
	if replication > 0 {
		t.gwReg = metrics.NewRegistry()
		gw, err := cluster.NewGateway(cluster.GatewayConfig{Shards: ids, Replication: replication, Registry: t.gwReg})
		if err != nil {
			return nil, errors.Join(err, t.close())
		}
		t.gw = gw
		if t.cfg.Addr, err = t.serve(gw.Serve); err != nil {
			return nil, errors.Join(err, t.close())
		}
	}
	return t, nil
}

// serve runs fn on a fresh loopback listener until close.
func (t *netTarget) serve(fn func(net.Listener) error) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	t.serving.Add(1)
	go func() {
		defer t.serving.Done()
		if err := fn(ln); err != nil && !errors.Is(err, net.ErrClosed) {
			t.serveMu.Lock()
			t.serveEr = err
			t.serveMu.Unlock()
		}
	}()
	return ln.Addr().String(), nil
}

func (t *netTarget) put(name string, r io.Reader) error {
	if t.ing == nil {
		ing, err := client.Connect(t.cfg)
		if err != nil {
			return err
		}
		t.ing = ing
	}
	return t.ing.PutFile(name, r)
}

func (t *netTarget) finish() error {
	if t.ing == nil {
		return nil
	}
	err := t.ing.Close()
	t.sent = addClientStats(t.sent, t.ing.Stats())
	t.ing = nil
	return err
}

// clientStats is the wire accounting of every ingest session so far.
func (t *netTarget) clientStats() client.Stats {
	if t.ing == nil {
		return t.sent
	}
	return addClientStats(t.sent, t.ing.Stats())
}

func addClientStats(a, b client.Stats) client.Stats {
	a.FilesSent += b.FilesSent
	a.InputBytes += b.InputBytes
	a.ChunksOffered += b.ChunksOffered
	a.ChunksSent += b.ChunksSent
	a.ChunkBytesSent += b.ChunkBytesSent
	a.WireBytesOut += b.WireBytesOut
	a.WireBytesIn += b.WireBytesIn
	a.Reconnects += b.Reconnects
	return a
}

func (t *netTarget) restore(name string, w io.Writer) error {
	_, err := client.Restore(t.cfg, name, true, w)
	return err
}

func (t *netTarget) restoreRange(name string, off, n int64, w io.Writer) error {
	_, err := client.RestoreRange(t.cfg, name, false, off, n, w)
	return err
}

func (t *netTarget) engines() []dedup.Engine {
	out := make([]dedup.Engine, len(t.engs))
	for i, e := range t.engs {
		out[i] = e
	}
	return out
}

// close stops the gateway and the shards, waits for their serve loops
// and closes the logs.
func (t *netTarget) close() error {
	var errs []error
	if t.ing != nil {
		errs = append(errs, t.finish())
	}
	if t.gw != nil {
		errs = append(errs, t.gw.Close())
	}
	for _, s := range t.servers {
		errs = append(errs, s.Close())
	}
	t.serving.Wait()
	for _, d := range t.durs {
		errs = append(errs, d.Close())
	}
	errs = append(errs, t.serveEr)
	return errors.Join(errs...)
}

// disks returns every engine's disk.
func disks(t target) []*simdisk.Disk {
	var out []*simdisk.Disk
	for _, e := range t.engines() {
		out = append(out, e.Disk())
	}
	return out
}
