package keycount

import (
	"math/rand"
	"reflect"
	"testing"

	"megaphone/internal/core"
)

// TestHashStateCodec: hash-count bins reconstruct identically under gob and
// binary, from empty to paper-scale (domain 2^21 over 2^8 bins = 8192 keys
// per bin).
func TestHashStateCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{0, 1, 100, 8192} {
		s := &HashState{M: make(map[uint64]uint64, size)}
		for i := 0; i < size; i++ {
			s.M[rng.Uint64()] = rng.Uint64() % 1000
		}
		bin := &core.BinState[uint64, HashState]{State: s}
		for _, codec := range []core.Codec{core.TransferGob, core.TransferBinary} {
			payload, err := codec.EncodeBin(bin, nil)
			if err != nil {
				t.Fatalf("%s size=%d: encode: %v", codec.Name(), size, err)
			}
			got := &core.BinState[uint64, HashState]{State: &HashState{M: make(map[uint64]uint64)}}
			if err := codec.DecodeBin(got, payload); err != nil {
				t.Fatalf("%s size=%d: decode: %v", codec.Name(), size, err)
			}
			if !reflect.DeepEqual(got.State, bin.State) {
				t.Fatalf("%s size=%d: state mismatch", codec.Name(), size)
			}
			if len(got.Pending) != 0 {
				t.Fatalf("%s size=%d: phantom pending records", codec.Name(), size)
			}
		}
	}
}

// TestArrayStateCodec: key-count dense bins reconstruct identically.
func TestArrayStateCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, size := range []int{0, 1, 8192} {
		s := &ArrayState{Counts: make([]uint64, size)}
		for i := range s.Counts {
			s.Counts[i] = rng.Uint64() % 100
		}
		bin := &core.BinState[uint64, ArrayState]{State: s}
		for _, codec := range []core.Codec{core.TransferGob, core.TransferBinary} {
			payload, err := codec.EncodeBin(bin, nil)
			if err != nil {
				t.Fatalf("%s size=%d: encode: %v", codec.Name(), size, err)
			}
			got := &core.BinState[uint64, ArrayState]{State: &ArrayState{}}
			if err := codec.DecodeBin(got, payload); err != nil {
				t.Fatalf("%s size=%d: decode: %v", codec.Name(), size, err)
			}
			if size == 0 {
				if len(got.State.Counts) != 0 {
					t.Fatalf("%s: empty array grew to %d", codec.Name(), len(got.State.Counts))
				}
				continue
			}
			if !reflect.DeepEqual(got.State, bin.State) {
				t.Fatalf("%s size=%d: state mismatch", codec.Name(), size)
			}
		}
	}
}

// TestKeycountBinaryFastPath: the keycount states must take the binary
// format (tag 0x01), not the gob fallback — the whole point of the codec.
func TestKeycountBinaryFastPath(t *testing.T) {
	hb := &core.BinState[uint64, HashState]{State: &HashState{M: map[uint64]uint64{3: 1}}}
	ab := &core.BinState[uint64, ArrayState]{State: &ArrayState{Counts: []uint64{1, 2}}}
	for label, bin := range map[string]interface {
		AppendBinary([]byte) ([]byte, bool)
	}{"hash": hb, "array": ab} {
		if _, ok := bin.AppendBinary(nil); !ok {
			t.Fatalf("%s state does not satisfy the binary contract", label)
		}
	}
	p, err := core.TransferBinary.EncodeBin(hb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != 0x01 {
		t.Fatalf("hash-count bin fell back to gob (tag %#x)", p[0])
	}
}

// TestArrayStateDecodeReusesCounts: decoding a migrated dense bin fills the
// Counts array NewState already allocated instead of dropping it for a new
// one — a whole bin of garbage per installed bin otherwise.
func TestArrayStateDecodeReusesCounts(t *testing.T) {
	const span = 8192
	src := &ArrayState{Counts: make([]uint64, span)}
	for i := range src.Counts {
		src.Counts[i] = uint64(i) * 7
	}
	payload, err := core.TransferBinary.EncodeBin(&core.BinState[uint64, ArrayState]{State: src}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := &ArrayState{Counts: make([]uint64, span)}
	got := &core.BinState[uint64, ArrayState]{State: dst}
	counts := dst.Counts
	allocs := testing.AllocsPerRun(100, func() {
		if err := core.TransferBinary.DecodeBin(got, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("decoding a %d-key bin into a sized state allocates %.1f objects, want 0", span, allocs)
	}
	if &got.State.Counts[0] != &counts[0] {
		t.Fatal("decode replaced the pre-allocated Counts array")
	}
	if !reflect.DeepEqual(got.State, src) {
		t.Fatal("decoded state differs from the encoded one")
	}
}
