package libos

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"autarky/internal/core"
	"autarky/internal/hostos"
	"autarky/internal/mmu"
	"autarky/internal/sgx"
	"autarky/internal/sim"
)

// This file implements the sealed-state pipeline that checkpoints and
// migrations share. The source side captures the writable image (data,
// heap, stack), the application progress counter and the per-page
// anti-replay versions at a quiescent point (CSSA 0, nothing executing),
// encodes them with one deterministic binary codec, and seals the bytes into
// an sgx envelope — a checkpoint under the checkpoint key with epoch 0, a
// migration under the migration key with its freshness epoch. The rebuilding
// side authenticates the envelope, decodes it defensively, rebuilds the
// enclave from the same image and configuration — a fresh enclave identity
// and sealing key, so a restart stays detectable exactly as the paper's
// threat model requires — and replays the captured pages through the normal
// write path, re-encrypting them under the new incarnation's key. Old blobs
// are never reused.
//
// Encode and seal run into buffers the process reuses: quiesce sits on the
// serving tail — every byte of downtime is attributed — so encode+seal must
// not allocate once the scratch is warm.

// stateFormatVersion stamps the codec layout; a decoder seeing any other
// value rejects the payload outright.
const stateFormatVersion = 1

// Decode guards: a sealed payload is authenticated, but "authenticated" is
// not "well-formed" (an older writer, a hostile sealing oracle). Counts are
// capped before any allocation they would size.
const (
	maxStateStringLen = 1 << 16
	maxStateLibraries = 1 << 12
	maxStateFuncs     = 1 << 12
	maxStatePages     = 1 << 20
	maxImagePages     = 1 << 20 // 4 GiB of ELRANGE; far beyond any test image
)

// statePage is one captured writable page.
type statePage struct {
	VA   uint64
	Data []byte
}

// statePayload is the decoded plaintext of a sealed-state envelope. The
// measurement travels in the envelope header, not the encoded bytes.
type statePayload struct {
	Image    AppImage
	Config   Config
	Progress uint64
	Versions map[uint64]uint64
	Pages    []statePage
}

// sealState is the capture→encode→seal pipeline, returning the envelope (in
// a buffer of its own, sized exactly) and the captured page count. The
// caller checks the enclave-level preconditions first.
func (p *Process) sealState(key sgx.StateKey, epoch uint64) ([]byte, int, error) {
	if p.stateCapture == nil {
		p.stateCapture = p.captureWritable
	}
	// Capture drives the real access path (faulting evicted pages back in),
	// so a hostile backing store can fail it — the source is then still
	// live and keeps running.
	if err := p.Run(p.stateCapture); err != nil {
		return nil, 0, err
	}
	p.statePlain = p.encodeState(p.statePlain[:0])
	sealed, err := p.Kernel.CPU.SealState(nil, key, epoch, p.Proc.E.Measurement(), p.statePlain)
	if err != nil {
		return nil, 0, err
	}
	return sealed, len(p.stateVAs), nil
}

// writableRegions returns the regions sealed state must carry, in ascending
// address order. Code pages are omitted: the loader regenerates them
// deterministically and the measurement check proves they match.
func (p *Process) writableRegions() []Region {
	var out []Region
	for _, r := range []Region{p.Data, p.Heap, p.Stack} {
		if r.Pages > 0 {
			out = append(out, r)
		}
	}
	return out
}

// zeroPage pads the capture buffer one page at a time without a per-page
// temporary.
var zeroPage [mmu.PageSize]byte

// captureWritable snapshots every writable page into the process's reused
// capture buffers, running inside the enclave so evicted pages are faulted
// back through the ordinary (policy-visible) path.
func (p *Process) captureWritable(ctx *core.Context) {
	regions := p.writableRegions()
	n := 0
	for _, r := range regions {
		n += r.Pages
	}
	p.statePages = slices.Grow(p.statePages[:0], n*mmu.PageSize)
	p.stateVAs = slices.Grow(p.stateVAs[:0], n)
	for _, r := range regions {
		for i := 0; i < r.Pages; i++ {
			va := r.Page(i)
			start := len(p.statePages)
			p.statePages = append(p.statePages, zeroPage[:]...)
			ctx.Read(va, p.statePages[start:])
			p.stateVAs = append(p.stateVAs, uint64(va))
		}
	}
}

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendInt(b []byte, v int) []byte { return appendU64(b, uint64(int64(v))) }

func appendStr(b []byte, s string) []byte {
	b = appendU64(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return appendU64(b, 1)
	}
	return appendU64(b, 0)
}

// encodeState appends the process's captured state to dst in the
// deterministic binary layout decodeState reverses. Field order is the
// struct order of statePayload (image, config, progress, versions, pages);
// the measurement travels in the envelope header, not here. The version
// table is emitted in ascending VPN order so identical state always encodes
// to identical bytes.
func (p *Process) encodeState(dst []byte) []byte {
	dst = appendU64(dst, stateFormatVersion)

	dst = appendImage(dst, &p.Image)
	dst = appendConfig(dst, &p.cfg)
	dst = appendU64(dst, p.Runtime.Progress())

	e := p.Proc.E
	p.stateVPNs = e.VersionVPNs(p.stateVPNs[:0])
	slices.Sort(p.stateVPNs)
	// The rest is sized exactly, so a cold buffer grows once, not by
	// doubling through every page.
	dst = slices.Grow(dst, 16+16*len(p.stateVPNs)+len(p.stateVAs)*(16+mmu.PageSize))
	dst = appendU64(dst, uint64(len(p.stateVPNs)))
	for _, vpn := range p.stateVPNs {
		dst = appendU64(dst, vpn)
		dst = appendU64(dst, e.Version(mmu.VAddr(vpn*mmu.PageSize)))
	}

	dst = appendU64(dst, uint64(len(p.stateVAs)))
	for i, va := range p.stateVAs {
		dst = appendU64(dst, va)
		pg := p.statePages[i*mmu.PageSize : (i+1)*mmu.PageSize]
		dst = appendU64(dst, uint64(len(pg)))
		dst = append(dst, pg...)
	}
	return dst
}

// appendImage appends the image section of the sealed-state layout.
func appendImage(dst []byte, img *AppImage) []byte {
	dst = appendStr(dst, img.Name)
	dst = appendU64(dst, uint64(len(img.Libraries)))
	for i := range img.Libraries {
		l := &img.Libraries[i]
		dst = appendStr(dst, l.Name)
		dst = appendInt(dst, l.Pages)
		dst = appendU64(dst, uint64(len(l.Funcs)))
		for _, f := range l.Funcs {
			dst = appendStr(dst, f.Name)
			dst = appendInt(dst, f.Pages)
		}
		dst = appendU64(dst, uint64(len(l.Uses)))
		for _, u := range l.Uses {
			dst = appendStr(dst, u)
		}
	}
	dst = appendInt(dst, img.DataPages)
	dst = appendInt(dst, img.HeapPages)
	dst = appendInt(dst, img.StackPages)
	return appendInt(dst, img.ReservePages)
}

// appendConfig appends the configuration section of the sealed-state
// layout.
func appendConfig(dst []byte, cfg *Config) []byte {
	dst = appendU64(dst, uint64(cfg.Base))
	dst = appendInt(dst, cfg.Priority)
	dst = appendBool(dst, cfg.SelfPaging)
	dst = appendBool(dst, cfg.InEnclaveResume)
	dst = appendBool(dst, cfg.ElideAEX)
	dst = appendU64(dst, uint64(cfg.Mech))
	dst = appendInt(dst, cfg.QuotaPages)
	dst = appendU64(dst, uint64(cfg.Policy))
	dst = appendU64(dst, math.Float64bits(cfg.RateLimitPerProgress))
	dst = appendU64(dst, cfg.RateLimitBurst)
	dst = appendInt(dst, cfg.DataClusterPages)
	dst = appendBool(dst, cfg.CodeClusters)
	dst = appendBool(dst, cfg.PinData)
	return appendInt(dst, cfg.NSSA)
}

// stateReader is a bounds-checked cursor over a sealed-state payload. The
// first structural defect latches err; every later read returns zero
// values, so decode logic reads straight through and checks once.
type stateReader struct {
	b   []byte
	off int
	err error
}

func (r *stateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("libos: sealed-state payload: "+format+": %w",
			append(args, sgx.ErrBadCheckpoint)...)
	}
}

func (r *stateReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// count reads a collection length and refuses anything past max or past
// what the remaining bytes could possibly hold (minSize bytes per element),
// so a hostile length can never size an allocation.
func (r *stateReader) count(max int, minSize int) int {
	v := r.u64()
	if r.err != nil {
		return 0
	}
	if v > uint64(max) || v > uint64(len(r.b)-r.off)/uint64(minSize) {
		r.fail("implausible element count %d at byte %d", v, r.off-8)
		return 0
	}
	return int(v)
}

func (r *stateReader) num() int {
	v := int64(r.u64())
	if r.err == nil && (v < math.MinInt32 || v > math.MaxInt32) {
		r.fail("integer %d out of range at byte %d", v, r.off-8)
		return 0
	}
	return int(v)
}

// pages reads a page count, which must be non-negative.
func (r *stateReader) pages(what string) int {
	n := r.num()
	if n < 0 {
		r.fail("%s has negative page count %d", what, n)
		return 0
	}
	return n
}

func (r *stateReader) boolean() bool { return r.u64() != 0 }

func (r *stateReader) str() string {
	n := r.count(maxStateStringLen, 1)
	if r.err != nil {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *stateReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail("truncated at byte %d", r.off)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

// decodeState parses an authenticated sealed-state payload, defensively:
// every structural defect — truncation, implausible or negative counts, an
// empty or oversized image, an unaligned or oversized page, trailing
// garbage — yields an ErrBadCheckpoint-wrapped field error, never a panic or
// a partially-populated payload. Checkpoints and migrations share it.
func decodeState(plain []byte) (*statePayload, error) {
	r := &stateReader{b: plain}
	if v := r.u64(); r.err == nil && v != stateFormatVersion {
		return nil, fmt.Errorf("libos: sealed-state payload: unknown format version %d: %w", v, sgx.ErrBadCheckpoint)
	}

	var payload statePayload
	img := &payload.Image
	img.Name = r.str()
	img.Libraries = make([]Library, r.count(maxStateLibraries, 8))
	for i := range img.Libraries {
		l := &img.Libraries[i]
		l.Name = r.str()
		l.Pages = r.pages("library")
		if n := r.count(maxStateFuncs, 8); n > 0 {
			l.Funcs = make([]Function, n)
			for j := range l.Funcs {
				l.Funcs[j].Name = r.str()
				l.Funcs[j].Pages = r.pages("function")
			}
		}
		if n := r.count(maxStateFuncs, 8); n > 0 {
			l.Uses = make([]string, n)
			for j := range l.Uses {
				l.Uses[j] = r.str()
			}
		}
	}
	img.DataPages = r.pages("data region")
	img.HeapPages = r.pages("heap region")
	img.StackPages = r.pages("stack region")
	img.ReservePages = r.pages("reserve region")

	cfg := &payload.Config
	cfg.Base = mmu.VAddr(r.u64())
	cfg.Priority = r.num()
	cfg.SelfPaging = r.boolean()
	cfg.InEnclaveResume = r.boolean()
	cfg.ElideAEX = r.boolean()
	cfg.Mech = core.Mech(r.num())
	cfg.QuotaPages = r.num()
	cfg.Policy = PolicyKind(r.num())
	cfg.RateLimitPerProgress = math.Float64frombits(r.u64())
	cfg.RateLimitBurst = r.u64()
	cfg.DataClusterPages = r.num()
	cfg.CodeClusters = r.boolean()
	cfg.PinData = r.boolean()
	cfg.NSSA = r.num()

	payload.Progress = r.u64()

	if n := r.count(maxStatePages, 16); r.err == nil {
		payload.Versions = make(map[uint64]uint64, n)
		for i := 0; i < n; i++ {
			vpn := r.u64()
			payload.Versions[vpn] = r.u64()
		}
	}

	if n := r.count(maxStatePages, 16); r.err == nil && n > 0 {
		payload.Pages = make([]statePage, n)
		for i := range payload.Pages {
			va := r.u64()
			sz := r.num()
			if r.err == nil && va%mmu.PageSize != 0 {
				r.fail("unaligned page address %#x", va)
			}
			if r.err == nil && (sz < 0 || sz > mmu.PageSize) {
				r.fail("page %#x carries %d bytes", va, sz)
			}
			payload.Pages[i] = statePage{VA: va, Data: r.bytes(sz)}
		}
	}

	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("libos: sealed-state payload: %d trailing bytes: %w", len(r.b)-r.off, sgx.ErrBadCheckpoint)
	}
	total := img.DataPages + img.HeapPages + img.StackPages + img.ReservePages
	for i := range img.Libraries {
		total += img.Libraries[i].TotalPages()
	}
	if total <= 0 || total > maxImagePages {
		return nil, fmt.Errorf("libos: sealed-state payload: implausible image size %d pages: %w", total, sgx.ErrBadCheckpoint)
	}
	return &payload, nil
}

// restorePayload is the shared rebuild-and-replay tail of Restore and Adopt:
// tear down the dead incarnation occupying the address range, rebuild the
// enclave from the payload's image and configuration, verify its measurement
// matches meas (the source's, from the envelope header), and replay the
// captured pages through the normal write path — re-encrypting every page
// under the new incarnation's identity.
// seedEpoch, when non-zero, records the migration freshness counter the new
// incarnation resumes from (Adopt); Restore passes zero.
func restorePayload(k *hostos.Kernel, clock *sim.Clock, costs *sim.Costs, payload *statePayload, meas [32]byte, seedEpoch uint64) (*Process, error) {
	base := payload.Config.Base
	if base == 0 {
		base = DefaultBase
	}
	if old := k.ProcAt(base); old != nil {
		if err := k.DestroyEnclave(old); err != nil {
			return nil, err
		}
	}
	cfg := payload.Config
	cfg.seedVersions = payload.Versions
	cfg.seedEpoch = seedEpoch
	p, err := Load(k, clock, costs, payload.Image, cfg)
	if err != nil {
		return nil, err
	}
	// A rebuilt incarnation the sealed state does not fit is discarded
	// before it runs a single access: it terminates itself and the kernel
	// reclaims its frames, so a refused rebuild leaves the range free.
	discard := func(err error) (*Process, error) {
		// Run returns the termination it just requested; nothing to report.
		_ = p.Run(func(*core.Context) {
			k.CPU.Terminate(sgx.TerminateIntegrity, "sealed state does not match the rebuilt enclave")
		})
		if derr := k.DestroyEnclave(p.Proc); derr != nil {
			return nil, fmt.Errorf("%w (discarding the rebuilt enclave: %v)", err, derr)
		}
		return nil, err
	}
	if p.Proc.E.Measurement() != meas {
		return discard(fmt.Errorf("libos: restored enclave measurement differs from checkpoint: %w", sgx.ErrBadCheckpoint))
	}
	// Replay only pages the rebuilt image actually has as writable state; a
	// sealed payload naming any other address is inconsistent with the image
	// it carries and must fail cleanly, not fault the replay.
	writable := make(map[mmu.VAddr]bool)
	for _, r := range p.writableRegions() {
		for _, va := range r.PageVAs() {
			writable[va] = true
		}
	}
	for i := range payload.Pages {
		if !writable[mmu.VAddr(payload.Pages[i].VA)] {
			return discard(fmt.Errorf("libos: checkpoint page %#x outside the image's writable regions: %w",
				payload.Pages[i].VA, sgx.ErrBadCheckpoint))
		}
	}
	err = p.Run(func(ctx *core.Context) {
		for i := range payload.Pages {
			ctx.Write(mmu.VAddr(payload.Pages[i].VA), payload.Pages[i].Data)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("libos: checkpoint replay: %w", err)
	}
	p.Runtime.SeedProgress(payload.Progress)
	return p, nil
}
