// Package wormsim's root benchmarks regenerate the ablation and extension
// experiments of DESIGN.md's experiment index:
//
//	BenchmarkAblation*    — A-VC, A-SEL, A-CC, A-RTD, A-ML
//	BenchmarkTranspose    — X-TRANS: Glass & Ni's transpose claim
//
// Each benchmark iteration runs a full converged simulation at one offered
// load, so the interesting outputs are the custom metrics, not ns/op:
// "latency_cycles" is the converged average message latency and
// "throughput" the achieved channel utilization. Benchmarks use shortened
// warmup/sampling windows; run cmd/figures for the paper's figures and
// go run ./benchmark for how long they take.
package wormsim

import (
	"fmt"
	"testing"

	"wormsim/internal/core"
)

// benchBase is the shared quick methodology for benchmarks.
func benchBase() core.Config {
	return core.Config{
		Seed:         1,
		WarmupCycles: 2000,
		SampleCycles: 1000,
		GapCycles:    300,
		MaxSamples:   4,
	}
}

// runPoint runs one simulation point inside a benchmark and reports its
// metrics.
func runPoint(b *testing.B, cfg core.Config) core.Result {
	b.Helper()
	res, err := core.Run(cfg)
	if err != nil && !res.Deadlocked {
		b.Fatalf("%s at rho=%.2f: %v", cfg.Algorithm, cfg.OfferedLoad, err)
	}
	return res
}

// BenchmarkAblationEcubeVCs is experiment A-VC: e-cube throughput as
// virtual channels are added (1, 2 and 4 dateline lane pairs), uniform
// traffic at a saturating load — Dally's virtual-channel result.
func BenchmarkAblationEcubeVCs(b *testing.B) {
	for _, alg := range []string{"ecube", "ecube2x", "ecube4x"} {
		b.Run(alg, func(b *testing.B) {
			var res core.Result
			for i := 0; i < b.N; i++ {
				cfg := benchBase()
				cfg.Algorithm = alg
				cfg.OfferedLoad = 0.6
				res = runPoint(b, cfg)
			}
			b.ReportMetric(res.AvgLatency, "latency_cycles")
			b.ReportMetric(res.Throughput, "throughput")
		})
	}
}

// BenchmarkAblationSelection is experiment A-SEL: the output virtual-channel
// selection policy under nbc at a saturating load.
func BenchmarkAblationSelection(b *testing.B) {
	for _, policy := range []string{"random", "first", "leastcongested"} {
		b.Run(policy, func(b *testing.B) {
			var res core.Result
			for i := 0; i < b.N; i++ {
				cfg := benchBase()
				cfg.Algorithm = "nbc"
				cfg.Policy = policy
				cfg.OfferedLoad = 0.8
				res = runPoint(b, cfg)
			}
			b.ReportMetric(res.AvgLatency, "latency_cycles")
			b.ReportMetric(res.Throughput, "throughput")
		})
	}
}

// BenchmarkAblationCongestion is experiment A-CC: the input-buffer-limit
// sweep for e-cube and phop beyond saturation, showing that the limit is
// what keeps post-saturation throughput from collapsing.
func BenchmarkAblationCongestion(b *testing.B) {
	for _, alg := range []string{"ecube", "phop"} {
		for _, limit := range []int{-1, 1, 2, 4, 8} {
			name := fmt.Sprintf("%s/limit=%d", alg, limit)
			if limit < 0 {
				name = fmt.Sprintf("%s/limit=off", alg)
			}
			b.Run(name, func(b *testing.B) {
				var res core.Result
				for i := 0; i < b.N; i++ {
					cfg := benchBase()
					cfg.Algorithm = alg
					cfg.CCLimit = limit
					cfg.OfferedLoad = 0.7
					res = runPoint(b, cfg)
				}
				b.ReportMetric(res.AvgLatency, "latency_cycles")
				b.ReportMetric(res.Throughput, "throughput")
			})
		}
	}
}

// BenchmarkAblationRouterDelay is experiment A-RTD: the paper's hardware
// argument — "the complexity of the routing algorithm and, hence, the
// hardware cost increase with the increase in adaptivity" — quantified:
// give the adaptive nbc router a pipeline penalty per header hop and see
// how many delay cycles its throughput advantage over a zero-delay e-cube
// survives.
func BenchmarkAblationRouterDelay(b *testing.B) {
	for _, rd := range []int{0, 1, 2, 4} {
		b.Run(fmt.Sprintf("nbc/delay=%d", rd), func(b *testing.B) {
			var res core.Result
			for i := 0; i < b.N; i++ {
				cfg := benchBase()
				cfg.Algorithm = "nbc"
				cfg.RouteDelay = rd
				cfg.OfferedLoad = 0.6
				res = runPoint(b, cfg)
			}
			b.ReportMetric(res.AvgLatency, "latency_cycles")
			b.ReportMetric(res.Throughput, "throughput")
		})
	}
	b.Run("ecube/delay=0", func(b *testing.B) {
		var res core.Result
		for i := 0; i < b.N; i++ {
			cfg := benchBase()
			cfg.Algorithm = "ecube"
			cfg.OfferedLoad = 0.6
			res = runPoint(b, cfg)
		}
		b.ReportMetric(res.AvgLatency, "latency_cycles")
		b.ReportMetric(res.Throughput, "throughput")
	})
}

// BenchmarkTranspose is experiment X-TRANS: matrix-transpose traffic, the
// nonuniform pattern for which Glass & Ni report turn-model algorithms
// beating e-cube.
func BenchmarkTranspose(b *testing.B) {
	for _, alg := range []string{"nlast", "ecube", "nbc"} {
		b.Run(alg, func(b *testing.B) {
			var res core.Result
			for i := 0; i < b.N; i++ {
				cfg := benchBase()
				cfg.Algorithm = alg
				cfg.Pattern = "transpose"
				cfg.OfferedLoad = 0.4
				res = runPoint(b, cfg)
			}
			b.ReportMetric(res.AvgLatency, "latency_cycles")
			b.ReportMetric(res.Throughput, "throughput")
		})
	}
}

// BenchmarkAblationMsgLen sweeps the message length (the paper fixes 16
// flits and notes 16/20/24 are common in the literature): longer worms
// amortize header overheads but hold channel chains longer when blocked.
func BenchmarkAblationMsgLen(b *testing.B) {
	for _, alg := range []string{"nbc", "ecube"} {
		for _, ml := range []int{4, 8, 16, 24, 32} {
			b.Run(fmt.Sprintf("%s/flits=%d", alg, ml), func(b *testing.B) {
				var res core.Result
				for i := 0; i < b.N; i++ {
					cfg := benchBase()
					cfg.Algorithm = alg
					cfg.MsgLen = ml
					cfg.OfferedLoad = 0.5
					res = runPoint(b, cfg)
				}
				b.ReportMetric(res.AvgLatency, "latency_cycles")
				b.ReportMetric(res.Throughput, "throughput")
			})
		}
	}
}
