package ideal

import (
	"testing"

	"repro/internal/line"
)

// FuzzDiffKernels checks the search's pruning kernels against DiffBytes:
// the signature bound never exceeds it, and diffBelow is exact below its
// limit and at least the limit otherwise. The inputs build a line pair as
// in the line package's FuzzDiffKernels: a from raw, b from a and
// (offset, value) edits.
func FuzzDiffKernels(f *testing.F) {
	ramp := make([]byte, line.Size)
	for i := range ramp {
		ramp[i] = byte(i + 1)
	}
	f.Add(ramp, []byte{3, 0, 17, 9})     // near-duplicate, one byte zeroed
	f.Add(ramp, []byte{})                // identical lines
	f.Add([]byte{}, []byte{0, 1, 63, 1}) // zero line against a sparse one
	f.Add([]byte{0xff, 0x80, 0x01}, []byte{0, 0x7f, 1, 0x81, 2, 0xff, 40, 1})
	f.Fuzz(func(t *testing.T, raw, edits []byte) {
		var a line.Line
		copy(a[:], raw)
		b := a
		for i := 0; i+1 < len(edits); i += 2 {
			b[int(edits[i])%line.Size] = edits[i+1]
		}
		d := line.DiffBytes(&a, &b)
		if lb := signatureOf(&a).bound(signatureOf(&b)); lb > d {
			t.Fatalf("signature bound %d exceeds DiffBytes %d", lb, d)
		}
		for limit := 0; limit <= line.Size+1; limit++ {
			got := diffBelow(&a, &b, limit)
			if d < limit && got != d || d >= limit && got < limit {
				t.Fatalf("diffBelow(limit %d) = %d, DiffBytes %d", limit, got, d)
			}
		}
	})
}
