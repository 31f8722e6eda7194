package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"autarky"
	"autarky/internal/mmu"
	"autarky/internal/pagestore"
)

// span is one timed call into a layer, made by the benchmark.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int32         // index of the enclosing span, -1 for none
	op         int32         // the workload operation it belongs to
}

// tracer keeps spans in memory for one traced rep. A nil *tracer records
// nothing, so untraced reps pay one nil check per call site. The simulator
// hands control between its goroutines synchronously, so spans are never
// recorded concurrently.
type tracer struct {
	origin time.Time
	spans  []span
	open   int32 // innermost open span, -1 for none
	op     int32
}

func newTracer() *tracer { return &tracer{origin: time.Now(), open: -1} }

// reset drops the spans recorded so far (those of set-up) and restarts the
// clock, so a traced rep's spans cover exactly its timed phase.
func (t *tracer) reset() {
	if t != nil {
		t.spans, t.open, t.op, t.origin = t.spans[:0], -1, 0, time.Now()
	}
}

// setOp tags the spans that follow with operation id.
func (t *tracer) setOp(id int) {
	if t != nil {
		t.op = int32(id)
	}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), parent: t.open, op: t.op})
	t.open = int32(len(t.spans) - 1)
	return t.open
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.end = time.Since(t.origin)
	t.open = s.parent
}

// add records an already finished span under the innermost open one. Calls
// that a scheduler switch can interleave (request handlers of co-resident
// servers) use it instead of begin/end, so they never nest in each other.
func (t *tracer) add(name string, start time.Time) {
	if t != nil {
		t.spans = append(t.spans, span{name: name, start: start.Sub(t.origin),
			end: time.Since(t.origin), parent: t.open, op: t.op})
	}
}

// rename gives a closed or open span its final name (an access is known to
// have faulted only once it returns).
func (t *tracer) rename(id int32, name string) {
	if t != nil {
		t.spans[id].name = name
	}
}

// durations returns the durations of every span named name, in ns.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// total returns the summed duration of the spans named name, in ns.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// quantile returns the nearest-rank q-quantile of xs; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[nearestRank(q, len(xs))-1]
}

// selfTimes returns each span's duration minus the part its children cover.
// Children of one span are recorded in order and never overlap, so their
// durations sum to the covered part.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// spanRecord is one line of the span file.
type spanRecord struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// spanFileOps bounds the span file to the spans of the first operations;
// the per-layer metrics use every span.
const spanFileOps = 20_000

// write stores the spans of the first spanFileOps operations as JSON lines,
// one span per line, and returns the file's path. A span's parent is the
// index of the parent's line among all spans recorded (from 0), which is
// its line number too, since operations are recorded in order.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := t.selfTimes()
	for i, s := range t.spans {
		if s.op >= spanFileOps {
			break
		}
		rec := spanRecord{Name: s.name, Start: int64(s.start), End: int64(s.end),
			Self: int64(self[i]), Parent: s.parent, Op: s.op}
		if err := enc.Encode(rec); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// traceBackend wraps m's paging-backend stack in a timedBackend when tr is
// set. It must run before any enclave loads on m.
func traceBackend(m *autarky.Machine, tr *tracer) error {
	if tr == nil {
		return nil
	}
	return m.Kernel.SetBackend(&timedBackend{inner: m.Kernel.Backend(), tr: tr})
}

// timedBackend is a pass-through paging backend that records a span around
// every call into the backend stack it wraps. It must be installed before
// any enclave loads (hostos.Kernel.SetBackend refuses later swaps).
type timedBackend struct {
	inner pagestore.PagingBackend
	tr    *tracer
}

func (b *timedBackend) Name() string { return b.inner.Name() }

func (b *timedBackend) Evict(id uint64, va mmu.VAddr, blob pagestore.Blob) error {
	s := b.tr.begin("pagestore.evict")
	defer b.tr.end(s)
	return b.inner.Evict(id, va, blob)
}

func (b *timedBackend) Fetch(id uint64, va mmu.VAddr) (pagestore.Blob, error) {
	s := b.tr.begin("pagestore.fetch")
	defer b.tr.end(s)
	return b.inner.Fetch(id, va)
}

func (b *timedBackend) Drop(id uint64, va mmu.VAddr) error {
	s := b.tr.begin("pagestore.drop")
	defer b.tr.end(s)
	return b.inner.Drop(id, va)
}

func (b *timedBackend) EvictBatch(id uint64, pages []pagestore.PageBlob) error {
	s := b.tr.begin("pagestore.evict")
	defer b.tr.end(s)
	return b.inner.EvictBatch(id, pages)
}

func (b *timedBackend) FetchBatch(id uint64, pages []mmu.VAddr, out []pagestore.Blob) error {
	s := b.tr.begin("pagestore.fetch")
	defer b.tr.end(s)
	return b.inner.FetchBatch(id, pages, out)
}
