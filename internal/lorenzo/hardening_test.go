package lorenzo

import (
	"errors"
	"testing"

	"cliz/internal/grid"
)

// TestDecompressLiteralUnderrun drives the decoder with bins that all
// demand a literal (bin 0 is the literal escape) but an empty literal
// stream — the classic truncation attack. The decoder must return an
// error wrapping ErrCorrupt, not index past the slice.
func TestDecompressLiteralUnderrun(t *testing.T) {
	bins := []int32{0, 0, 0, 0}
	_, err := Decompress(bins, nil, []int{2, 2}, Config{EB: 0.01})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("literal underrun: want ErrCorrupt, got %v", err)
	}
}

// TestDecompressShapeMismatch covers the stream-geometry guards that
// previously returned unwrapped errors: bins/volume disagreement must
// classify as corrupt input.
func TestDecompressShapeMismatch(t *testing.T) {
	_, err := Decompress([]int32{1, 1, 1}, nil, []int{2, 2}, Config{EB: 0.01})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bins/volume mismatch: want ErrCorrupt, got %v", err)
	}
	if _, err := Decompress(nil, nil, nil, Config{EB: 0.01}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty grid: want ErrCorrupt, got %v", err)
	}
}

// TestVerifyBuffersBinRange feeds the verifying decoder a bin outside
// the quantizer range; it must classify as corrupt rather than panic or
// reconstruct garbage silently.
func TestVerifyBuffersBinRange(t *testing.T) {
	bins := []int32{1 << 30, 1, 1, 1}
	recon := make([]float32, 4)
	_, err := VerifyLayout(bins, nil, grid.IdentityLayout([]int{2, 2}), Config{EB: 0.01}, recon, 1)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-range bin: want ErrCorrupt, got %v", err)
	}
}
