package libos

import (
	"testing"

	"autarky/internal/sgx"
)

// BenchmarkMigrationSeal measures the steady-state quiesce hot path —
// encode the captured pages and seal the envelope into warm scratch
// buffers. ReportAllocs pins the zero-alloc discipline that
// TestMigrationSealZeroAlloc gates: allocs/op must read 0.
func BenchmarkMigrationSeal(b *testing.B) {
	k, clock, costs := newMigKernel(2048)
	p := runMigrant(b, k, clock, costs)
	if err := p.Run(p.captureWritable); err != nil {
		b.Fatal(err)
	}
	epoch := p.Proc.E.MigrationEpoch() + 1
	meas := p.Proc.E.Measurement()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.statePlain = p.encodeState(p.statePlain[:0])
		sealed, err := k.CPU.SealState(buf[:0], sgx.MigrationKey, epoch, meas, p.statePlain)
		if err != nil {
			b.Fatal(err)
		}
		buf = sealed
	}
}
