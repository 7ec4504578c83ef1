package core

import (
	"math/rand"
	"testing"
)

// TestDecompressNeverPanicsOnMutations hammers the decoder with byte-level
// corruptions of valid blobs: every mutation must return cleanly (an error
// or, for payload bits the checksums cannot see, wrong data) — never panic.
func TestDecompressNeverPanicsOnMutations(t *testing.T) {
	ds := smallSSH()
	eb := ds.AbsErrorBound(1e-2)
	p := Default(ds)
	p.Period = 12
	p.Classify = true
	blob, err := Compress(ds, eb, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	run := func(b []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decoder panicked: %v", r)
			}
		}()
		_, _, _ = Decompress(b, DecompressOptions{})
		_, _ = Inspect(b)
	}
	// Single-byte flips across the whole blob (sampled for speed).
	for trial := 0; trial < 600; trial++ {
		bad := append([]byte(nil), blob...)
		i := rng.Intn(len(bad))
		bad[i] ^= byte(1 + rng.Intn(255))
		run(bad)
	}
	// Truncations at every length up to a cap.
	step := len(blob)/200 + 1
	for cut := 0; cut < len(blob); cut += step {
		run(blob[:cut])
	}
	// Random garbage.
	for trial := 0; trial < 100; trial++ {
		garbage := make([]byte, rng.Intn(400))
		rng.Read(garbage)
		run(garbage)
	}
	// Garbage with a valid magic prefix.
	for trial := 0; trial < 100; trial++ {
		garbage := make([]byte, 8+rng.Intn(200))
		rng.Read(garbage)
		copy(garbage, "CLZ1")
		garbage[4] = 1
		run(garbage)
	}
}

// TestChunkedDecoderNeverPanics does the same for the parallel container.
func TestChunkedDecoderNeverPanics(t *testing.T) {
	ds := smallHurricane()
	blob, err := CompressChunked(ds, ds.AbsErrorBound(1e-2), Default(ds), Options{}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	run := func(b []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("chunked decoder panicked: %v", r)
			}
		}()
		_, _, _ = Decompress(b, DecompressOptions{Workers: 2})
	}
	for trial := 0; trial < 400; trial++ {
		bad := append([]byte(nil), blob...)
		bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		run(bad)
	}
	step := len(blob)/100 + 1
	for cut := 0; cut < len(blob); cut += step {
		run(blob[:cut])
	}
}
