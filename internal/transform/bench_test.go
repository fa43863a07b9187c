package transform

import "testing"

// BenchmarkApplyTPReshard measures the full pipeline: parallel fetch +
// stage + commit for a TP 2->4 re-shard of a reduced-scale GPT (real
// bytes through local stores). It reports copy amplification (bytes
// physically copied per plan byte) as a custom metric, so `go test
// -bench` output doubles as the copy-accounting record.
func BenchmarkApplyTPReshard(b *testing.B) {
	w := datapathWorkloads(b)[0]
	b.SetBytes(w.bytes)
	b.ReportAllocs()
	var last Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		stores := localStores(alloc(w.devs))
		if err := LoadPTC("bench", w.from, stores, w.golden); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		tr := &Transformer{Job: "bench", Stores: stores}
		st, err := tr.Apply(w.plan)
		if err != nil {
			b.Fatal(err)
		}
		last = st
	}
	b.ReportMetric(float64(last.BytesCopied)/float64(last.PlanBytes()), "copy-amp")
	b.ReportMetric(float64(last.AllocBytes), "alloc-B/op")
}

// BenchmarkLoadPTCLocal deploys the TP2·PP2 placement of the datapath
// workload's model into in-process stores: one worker per device, up to
// GOMAXPROCS devices at once.
func BenchmarkLoadPTCLocal(b *testing.B) {
	w := datapathWorkloads(b)[1]
	stores := localStores(w.from.Devices)
	b.SetBytes(w.from.TotalPlacedBytes())
	b.ReportAllocs()
	for b.Loop() {
		if err := LoadPTC("bench", w.from, stores, w.golden); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadPTCLocal reads the same placement back into full tensors:
// one worker per tensor, up to GOMAXPROCS tensors at once.
func BenchmarkReadPTCLocal(b *testing.B) {
	w := datapathWorkloads(b)[1]
	stores := localStores(w.from.Devices)
	if err := LoadPTC("bench", w.from, stores, w.golden); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(w.bytes)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ReadPTC("bench", w.from, stores); err != nil {
			b.Fatal(err)
		}
	}
}
