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
	b.ReportMetric(last.CopyAmplification(), "copy-amp")
	b.ReportMetric(float64(last.AllocBytes), "alloc-B/op")
}
