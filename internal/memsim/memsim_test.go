package memsim

import "testing"

func TestBGSaveReproducesPaperShape(t *testing.T) {
	cfg := DefaultRedisBGSave()
	samples := SimulateBGSave(cfg, 10, 160)
	if len(samples) != 160 {
		t.Fatalf("%d samples", len(samples))
	}
	// (1) Steady state before the fork: flat throughput, sub-ms averages.
	pre := samples[5]
	if pre.Phase != "steady" || pre.AvgLatencyMs > 1 {
		t.Fatalf("pre-fork sample: %+v", pre)
	}
	// (2) The fork step shows a p100 spike of ForkMsPerGB × dataset
	// (paper: ~12 ms/GB), with throughput roughly intact.
	var fork *Sample
	for i := range samples {
		if samples[i].Phase == "fork" {
			fork = &samples[i]
			break
		}
	}
	if fork == nil {
		t.Fatal("no fork step")
	}
	wantStall := cfg.ForkMsPerGB * cfg.DatasetGB
	if fork.P100LatencyMs != wantStall {
		t.Fatalf("fork p100 = %v, want %v", fork.P100LatencyMs, wantStall)
	}
	if fork.ThroughputOps < pre.ThroughputOps*0.8 {
		t.Fatalf("fork step throughput collapsed: %v", fork.ThroughputOps)
	}
	// (3) COW accumulates during BGSave and memory eventually exceeds
	// DRAM, driving swap past the collapse threshold.
	if PeakSwapPct(samples) < cfg.SwapCollapsePct {
		t.Fatalf("swap peaked at %.2f%%, never crossed the %.0f%% collapse threshold",
			PeakSwapPct(samples), cfg.SwapCollapsePct)
	}
	// (4) Throughput collapses to near zero — an availability outage.
	if MinThroughput(samples) > pre.ThroughputOps*0.05 {
		t.Fatalf("min throughput %.0f, want near-zero collapse", MinThroughput(samples))
	}
	// (5) Tail latency reaches seconds during the collapse.
	if MaxP100(samples) < 1000 {
		t.Fatalf("max p100 = %.0f ms, want >= 1s", MaxP100(samples))
	}
}

func TestBGSaveWithAmpleRAMNeverSwaps(t *testing.T) {
	cfg := DefaultRedisBGSave()
	cfg.TotalRAMGB = 64 // plenty of headroom for COW
	samples := SimulateBGSave(cfg, 10, 160)
	if PeakSwapPct(samples) != 0 {
		t.Fatalf("swap with ample RAM: %.2f%%", PeakSwapPct(samples))
	}
	// Only the fork spike remains.
	if MinThroughput(samples) < samples[0].ThroughputOps*0.8 {
		t.Fatal("throughput degraded without memory pressure")
	}
}

func TestOffboxFlatThroughSnapshot(t *testing.T) {
	cfg := DefaultRedisBGSave()
	samples := SimulateOffbox(cfg, 30, 60, 120)
	base := samples[0].ThroughputOps
	sawSnapshot := false
	for _, s := range samples {
		if s.Phase == "offbox-snapshot" {
			sawSnapshot = true
		}
		if s.ThroughputOps != base {
			t.Fatalf("throughput moved during off-box snapshot: %+v", s)
		}
		if s.AvgLatencyMs > 2 {
			t.Fatalf("avg latency %v ms, want ~1 ms", s.AvgLatencyMs)
		}
		if s.P100LatencyMs < 10 || s.P100LatencyMs > 20 {
			t.Fatalf("p100 %v ms, want within 10–20 ms band", s.P100LatencyMs)
		}
	}
	if !sawSnapshot {
		t.Fatal("snapshot window never opened")
	}
}

func TestCOWReleasedAfterSnapshotCompletes(t *testing.T) {
	cfg := DefaultRedisBGSave()
	cfg.DatasetGB = 1 // small dataset: snapshot finishes quickly
	cfg.SerializeMBps = 1024
	samples := SimulateBGSave(cfg, 5, 60)
	done := false
	for _, s := range samples {
		if s.Phase == "done" {
			done = true
		}
		if done && s.COWGB != 0 {
			t.Fatalf("COW not released after completion: %+v", s)
		}
	}
	if !done {
		t.Fatal("snapshot never completed")
	}
}
