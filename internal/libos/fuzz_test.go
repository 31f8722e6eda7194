package libos

import (
	"bytes"
	"errors"
	"testing"

	"autarky/internal/core"
	"autarky/internal/hostos"
	"autarky/internal/sgx"
)

// fuzzImage is the small enclave the genuine fuzz checkpoint captures.
func fuzzImage() (AppImage, Config) {
	img := AppImage{
		Name:      "fuzz",
		Libraries: []Library{{Name: "libfuzz.so", Pages: 1}},
		HeapPages: 4,
	}
	return img, Config{}
}

// fuzzCheckpoint builds one genuine sealed checkpoint (and the CPU that
// sealed it, for sealing hostile-but-authentic payload variants). Every
// machine in this file shares newKernel's root secret, so blobs sealed
// here authenticate on the fresh machine each fuzz iteration builds.
func fuzzCheckpoint(f *testing.F) (*sgx.CPU, *Checkpoint) {
	f.Helper()
	k, clock, costs := newKernel()
	img, cfg := fuzzImage()
	p, err := Load(k, clock, costs, img, cfg)
	if err != nil {
		f.Fatal(err)
	}
	err = p.Run(func(ctx *core.Context) {
		var buf [8]byte
		ctx.Write(p.Heap.Page(0), buf[:])
		ctx.Progress(3)
	})
	if err != nil {
		f.Fatal(err)
	}
	cp, err := p.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	return k.CPU, cp
}

// fuzzMigration builds one genuine migration envelope and reports the
// progress counter the adopted process must carry.
func fuzzMigration(f *testing.F) (*Migration, uint64) {
	f.Helper()
	k, clock, costs := newMigKernel(2048)
	p := runMigrant(f, k, clock, costs)
	progress := p.Runtime.Progress()
	mig, err := p.Migrate()
	if err != nil {
		f.Fatal(err)
	}
	return mig, progress
}

// encodeHostile encodes an image and configuration with no progress,
// versions or pages in the sealed-state layout — the payload a hostile
// sealing oracle would hand the decoder.
func encodeHostile(img AppImage, cfg Config) []byte {
	b := appendU64(nil, stateFormatVersion)
	b = appendImage(b, &img)
	b = appendConfig(b, &cfg)
	b = appendU64(b, 0)    // progress
	b = appendU64(b, 0)    // versions
	return appendU64(b, 0) // pages
}

// sealedStateFuzz is the fixture and property shared by FuzzRestore and
// FuzzMigrate. The two targets drive the one sealed-state decoder from two
// seed corpora — checkpoint blobs and migration envelopes — and offer every
// input to both of its entry points, Restore and Adopt.
type sealedStateFuzz struct {
	sealer      *sgx.CPU
	goodCP      *Checkpoint
	goodMig     *Migration
	migProgress uint64
}

func newSealedStateFuzz(f *testing.F) *sealedStateFuzz {
	f.Helper()
	sealer, goodCP := fuzzCheckpoint(f)
	goodMig, migProgress := fuzzMigration(f)
	return &sealedStateFuzz{sealer: sealer, goodCP: goodCP, goodMig: goodMig, migProgress: migProgress}
}

// sealHostile seals an authentic envelope around an arbitrary payload: the
// variant a compromised sealing oracle would hand the decoder.
func (fz *sealedStateFuzz) sealHostile(f *testing.F, key sgx.StateKey, epoch uint64, meas [32]byte, payload []byte) []byte {
	f.Helper()
	sealed, err := fz.sealer.SealState(nil, key, epoch, meas, payload)
	if err != nil {
		f.Fatal(err)
	}
	return sealed
}

// check is the fuzz property. The OS holds checkpoints at rest and
// migration envelopes cross the untrusted network, so both paths face
// fully hostile input. It mirrors FuzzUnseal one layer up: neither path
// panics, returns anything but the documented checkpoint sentinel on a bad
// envelope, or leaks an EPC frame on a refusal — and each succeeds only on
// its own genuine bytes, yielding a process carrying the captured progress
// counter.
func (fz *sealedStateFuzz) check(t *testing.T, sealed []byte) {
	// refused checks a refusal's sentinel and that it left every EPC
	// frame free.
	refused := func(op string, k *hostos.Kernel, before int, err error) {
		t.Helper()
		if !errors.Is(err, sgx.ErrBadCheckpoint) {
			t.Fatalf("%s returned a non-checkpoint error: %v", op, err)
		}
		if got := k.CPU.EPC.FreeFrames(); got != before {
			t.Fatalf("refused %s leaked EPC frames: %d -> %d", op, before, got)
		}
	}

	k, clock, costs := newKernel()
	before := k.CPU.EPC.FreeFrames()
	p, err := Restore(k, clock, costs, &Checkpoint{Sealed: sealed})
	switch {
	case err != nil:
		refused("Restore", k, before, err)
	case !bytes.Equal(sealed, fz.goodCP.Sealed):
		// Success means the platform seal authenticated under the
		// checkpoint key and the payload decoded and matched the
		// rebuilt measurement: only the genuine checkpoint can.
		t.Fatalf("forged checkpoint restored (%d bytes)", len(sealed))
	case p.Runtime.Progress() != 3:
		t.Fatalf("restored process lost state: progress %d", p.Runtime.Progress())
	}

	k, clock, costs = newMigKernel(2048)
	before = k.CPU.EPC.FreeFrames()
	p, err = Adopt(k, clock, costs, &Migration{Sealed: sealed}, nil)
	switch {
	case err != nil:
		refused("Adopt", k, before, err)
	case !bytes.Equal(sealed, fz.goodMig.Sealed):
		t.Fatalf("forged migration adopted (%d bytes)", len(sealed))
	case p.Runtime.Progress() != fz.migProgress:
		t.Fatalf("adopted process lost state: progress %d", p.Runtime.Progress())
	}
}

// FuzzRestore drives the sealed-state decoder from checkpoint-shaped seeds:
// the genuine blob plus one representative of each documented failure
// refinement.
func FuzzRestore(f *testing.F) {
	fz := newSealedStateFuzz(f)
	good := fz.goodCP.Sealed
	f.Add(good)     // authentic
	f.Add(good[:8]) // truncated below any envelope
	f.Add([]byte{}) // empty
	f.Add([]byte("not a sealed blob at all"))
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)/2] ^= 0xFF
	f.Add(corrupt) // flipped ciphertext byte
	// Authentic seal, garbage payload: authentication passes, decode fails.
	f.Add(fz.sealHostile(f, sgx.CheckpointKey, 0, [32]byte{}, []byte("{ not json")))
	// Authentic seal, well-formed payload, hostile shape: negative region.
	f.Add(fz.sealHostile(f, sgx.CheckpointKey, 0, [32]byte{}, encodeHostile(AppImage{HeapPages: -4}, Config{})))
	// Authentic seal, valid image, wrong measurement: the restored enclave
	// can never match.
	img, cfg := fuzzImage()
	f.Add(fz.sealHostile(f, sgx.CheckpointKey, 0, [32]byte{0xBA, 0xD0}, encodeHostile(img, cfg)))
	f.Fuzz(fz.check)
}

// FuzzMigrate drives the sealed-state decoder from migration-shaped seeds:
// the genuine envelope plus one representative of each refusal class the
// decoder documents.
func FuzzMigrate(f *testing.F) {
	fz := newSealedStateFuzz(f)
	good := fz.goodMig.Sealed
	f.Add(good)      // authentic
	f.Add([]byte{})  // empty
	f.Add(good[:8])  // truncated below the nonce
	f.Add(good[:30]) // truncated inside the header
	f.Add([]byte("not a sealed migration envelope"))
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0xFF
	f.Add(corrupt) // flipped ciphertext byte
	header := append([]byte(nil), good...)
	header[12] ^= 0xFF
	f.Add(header) // tampered epoch in the authenticated header
	// Authentic seal, garbage payload: authentication passes, decode fails.
	f.Add(fz.sealHostile(f, sgx.MigrationKey, 1, [32]byte{}, []byte("{ garbage")))
	// Authentic seal, hostile counts: a page count far past the ciphertext.
	f.Add(fz.sealHostile(f, sgx.MigrationKey, 1, [32]byte{}, bytes.Repeat([]byte{0xFF}, 64)))
	// Authentic seal, wrong measurement: the rebuilt enclave can never match.
	f.Add(fz.sealHostile(f, sgx.MigrationKey, 1, [32]byte{0xBA, 0xD0}, []byte{}))
	f.Fuzz(fz.check)
}

// TestRestoreOntoLiveProcess: a checkpoint must not let the OS replace a
// live incarnation — Restore refuses with the kernel's liveness sentinel
// and the running process is untouched.
func TestRestoreOntoLiveProcess(t *testing.T) {
	k, clock, costs := newKernel()
	img, cfg := fuzzImage()
	p, err := Load(k, clock, costs, img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(k, clock, costs, cp); !errors.Is(err, hostos.ErrEnclaveLive) {
		t.Fatalf("Restore onto a live process: %v, want ErrEnclaveLive", err)
	}
	// The live incarnation still runs.
	if err := p.Run(func(ctx *core.Context) { ctx.Progress(1) }); err != nil {
		t.Fatalf("live process damaged by refused restore: %v", err)
	}
}
