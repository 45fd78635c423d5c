package program

import (
	"bytes"
	"testing"
)

// FuzzProgramDecode feeds arbitrary bytes to the program-image decoder. The
// invariants: no panic and no unbounded allocation on any input (the decoder
// grows element slices incrementally rather than trusting declared counts),
// and any image that decodes — hence validates — re-encodes canonically:
// encode(decode(data)) must itself decode and re-encode byte-identically.
func FuzzProgramDecode(f *testing.F) {
	// Seeds: two tiny generated (and therefore valid) images plus mangled
	// variants — truncation mid-structure, a corrupt byte (checksum
	// mismatch), a hostile code count with no payload, and a bad magic.
	valid := fuzzImage(f, 17)
	f.Add(valid)
	f.Add(fuzzImage(f, 43))
	f.Add(valid[:len(valid)/2])
	corrupt := append([]byte{}, valid...)
	corrupt[len(corrupt)/3] ^= 0x40
	f.Add(corrupt)
	// magic, zero-length name, seed/base/entry, then nCode = 2^26 with no
	// instruction payload behind it.
	hostile := []byte("BPPROG01\x00\x00")
	hostile = append(hostile, make([]byte, 24)...)    // seed, base, entry
	hostile = append(hostile, 0, 0, 0, 0)             // nRegions = 0
	hostile = append(hostile, 0x00, 0x00, 0x00, 0x04) // nCode = 1<<26 (LE)
	f.Add(hostile)
	f.Add([]byte("BPPROG99"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzImage {
			return
		}
		p, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected without panicking: success
		}
		var b1 bytes.Buffer
		if err := p.Encode(&b1); err != nil {
			t.Fatalf("re-encoding decoded program: %v", err)
		}
		q, err := Decode(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("decoding re-encoded program: %v", err)
		}
		var b2 bytes.Buffer
		if err := q.Encode(&b2); err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("encode→decode→encode not byte-identical (%d vs %d bytes)", b1.Len(), b2.Len())
		}
	})
}

// maxFuzzImage caps the inputs FuzzProgramDecode decodes. The fuzzing engine
// minimizes every input that finds new coverage, running the body a number
// of times quadratic in the input's length, and each run costs time linear
// in it: one input derived from a full testSpec image (80 KB) outlasts a
// short fuzz run. A two-block image holds every structure the format has
// (header, regions, instructions, sites) in a few hundred bytes.
const maxFuzzImage = 512

// fuzzImage encodes a two-block program generated from testSpec(seed): a
// few hundred bytes, under maxFuzzImage.
func fuzzImage(f *testing.F, seed uint64) []byte {
	sp := testSpec(seed)
	sp.NumBlocks = 2
	sp.MeanBlockLen = 2
	var buf bytes.Buffer
	if err := MustGenerate(sp).Encode(&buf); err != nil {
		f.Fatal(err)
	}
	if buf.Len() > maxFuzzImage {
		f.Fatalf("seed image is %d bytes, over maxFuzzImage %d", buf.Len(), maxFuzzImage)
	}
	return buf.Bytes()
}
