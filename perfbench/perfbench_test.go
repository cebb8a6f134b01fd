package main

import (
	"encoding/json"
	"os"
	"testing"

	"mhdedup/internal/simdisk"
)

var workloads = []string{"ingest-local", "ingest-cluster-r2", "restore-seek"}

// tinyConfig shrinks a workload so a run takes well under a second.
func tinyConfig(t *testing.T, workload string) config {
	t.Helper()
	cfg, err := defaultConfig(workload)
	if err != nil {
		t.Fatal(err)
	}
	cfg.seed, cfg.seconds, cfg.workdir = 7, 0.2, t.TempDir()
	cfg.machines, cfg.days, cfg.snapshot = 2, 2, 256<<10
	if workload == "restore-seek" {
		cfg.putDays = 1
	}
	cfg.passRanges, cfg.setups = 5, 2
	cfg.readDelay = 0
	cfg.rangeMin, cfg.rangeMax = 4<<10, 64<<10
	cfg.putEvery, cfg.restoreEvery = 3, 2
	return cfg
}

// benchmarkSpec is the part of BENCHMARK.json the runs must honour.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestEveryMetricEmitted runs each workload untraced and traced and
// checks that exactly the metrics BENCHMARK.json lists come out, each
// with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t, w)
			cfg.trace = traced
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d",
					w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s in %q, BENCHMARK.json says %q", w, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptByteFails flips one byte of every container read the
// system makes after ingest; every workload's check must catch it.
func TestCorruptByteFails(t *testing.T) {
	for _, w := range workloads {
		cfg := tinyConfig(t, w)
		cfg.tamper = func(ds []*simdisk.Disk) {
			for _, d := range ds {
				d.SetReadTransform(func(cat simdisk.Category, _ string, data []byte) []byte {
					if cat == simdisk.Data && len(data) > 0 {
						data[len(data)/2] ^= 0x5a
					}
					return data
				})
			}
		}
		res, err := run(cfg)
		if err == nil {
			t.Errorf("%s: a corrupted restored byte passed the check", w)
		}
		if res != nil && res.Correct {
			t.Errorf("%s: result says correct after corruption", w)
		}
	}
}

// TestSameSeedSameStore pins the determinism witness: two runs of one
// seed store exactly the same, another seed does not.
func TestSameSeedSameStore(t *testing.T) {
	der := func(seed int64) float64 {
		cfg := tinyConfig(t, "ingest-local")
		cfg.seed = seed
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics["real_der"].Value
	}
	a, b, c := der(3), der(3), der(4)
	if a != b {
		t.Errorf("seed 3 gave real DER %v then %v", a, b)
	}
	if a == c {
		t.Errorf("seeds 3 and 4 gave the same real DER %v", a)
	}
}
