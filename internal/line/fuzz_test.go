package line

import (
	"math/bits"
	"testing"
)

// fuzzPair builds the line pair of a kernel fuzz input: a is raw
// zero-padded (or truncated) to a line, and b is a with each (offset,
// value) pair of edits stored, so small edit lists give near-duplicates
// and edits to zero exercise the non-zero-byte masks.
func fuzzPair(raw, edits []byte) (a, b Line) {
	copy(a[:], raw)
	b = a
	for i := 0; i+1 < len(edits); i += 2 {
		b[int(edits[i])%Size] = edits[i+1]
	}
	return a, b
}

// FuzzDiffKernels checks the packed DiffBytes against the DiffMask
// popcount and a naive byte loop.
func FuzzDiffKernels(f *testing.F) {
	ramp := make([]byte, Size)
	for i := range ramp {
		ramp[i] = byte(i + 1)
	}
	f.Add(ramp, []byte{3, 0, 17, 9})     // near-duplicate, one byte zeroed
	f.Add(ramp, []byte{})                // identical lines
	f.Add([]byte{}, []byte{0, 1, 63, 1}) // zero line against a sparse one
	f.Add([]byte{0xff, 0x80, 0x01}, []byte{0, 0x7f, 1, 0x81, 2, 0xff, 40, 1})
	f.Fuzz(func(t *testing.T, raw, edits []byte) {
		a, b := fuzzPair(raw, edits)
		naive := 0
		for i := range a {
			if a[i] != b[i] {
				naive++
			}
		}
		if got := DiffBytes(&a, &b); got != naive {
			t.Fatalf("DiffBytes = %d, naive byte loop %d", got, naive)
		}
		if got := bits.OnesCount64(DiffMask(&a, &b)); got != naive {
			t.Fatalf("popcount(DiffMask) = %d, naive byte loop %d", got, naive)
		}
	})
}
