package dataset

import "testing"

func BenchmarkEpochOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = EpochOrder(7, i, 100000)
	}
}

func BenchmarkNextBatch(b *testing.B) {
	const n, gb, dp = 1 << 20, 1024, 8
	c := Cursor{Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.NextBatch(n, gb, dp)
	}
}
