package service

import "testing"

// BenchmarkServeRequest measures the host cost of one open-loop request
// served through Loop on a pin-all enclave: admission into a connection
// queue, dispatch, the echo handler, the reply and its latency sample.
// Preload reserves the histogram's samples, so allocs/op reads 0 in steady
// state. The requests run in rounds on fresh servers, which bounds the
// schedule's memory; building each server is not timed.
func BenchmarkServeRequest(b *testing.B) {
	const round = 1 << 16
	b.ReportAllocs()
	b.StopTimer()
	for done := 0; done < b.N; done += round {
		p, _ := newTestProc(b)
		register(p)
		s, err := New(p, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := s.Dial(); err != nil {
				b.Fatal(err)
			}
		}
		n := min(round, b.N-done)
		if err := s.Preload(OpenLoop{Arrivals: Poisson{MeanGap: 2_000}, Requests: n, Seed: 0xE14}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		err = p.Run(s.Loop)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if st := s.Stats(); st.Served != uint64(n) {
			b.Fatalf("served %d of %d requests", st.Served, n)
		}
	}
}
