package core

import (
	"testing"

	"cliz/internal/datagen"
	"cliz/internal/stats"
)

func TestChunkedRoundTrip(t *testing.T) {
	ds := smallSSH()
	eb := ds.AbsErrorBound(1e-2)
	p := Default(ds)
	p.Period = 12
	p.Classify = true
	for _, nChunks := range []int{1, 2, 3, 7} {
		blob, err := CompressChunked(ds, eb, p, Options{}, nChunks, 4)
		if err != nil {
			t.Fatalf("chunks=%d: %v", nChunks, err)
		}
		if !IsChunked(blob) {
			t.Fatal("missing container magic")
		}
		got, dims, err := Decompress(blob, DecompressOptions{Workers: 4})
		if err != nil {
			t.Fatalf("chunks=%d: %v", nChunks, err)
		}
		if !dimsEqual(dims, ds.Dims) {
			t.Fatalf("dims %v", dims)
		}
		valid := ds.Validity()
		if e := stats.MaxAbsErr(ds.Data, got, valid); e > eb*(1+1e-9) {
			t.Fatalf("chunks=%d: bound violated: %g > %g", nChunks, e, eb)
		}
	}
}

func TestChunkedMatchesSerial(t *testing.T) {
	// A single chunk must reproduce exactly what serial compression decodes
	// to (same pipeline, same data).
	ds := smallHurricane()
	eb := ds.AbsErrorBound(1e-2)
	p := Default(ds)
	serial, err := Compress(ds, eb, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sData, _, err := Decompress(serial, DecompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := CompressChunked(ds, eb, p, Options{}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cData, _, err := Decompress(chunked, DecompressOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sData {
		if sData[i] != cData[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestChunkBoundsPeriodAligned(t *testing.T) {
	b := chunkBounds(84, 4, 12)
	if b[0] != 0 || b[len(b)-1] != 84 {
		t.Fatalf("bounds %v", b)
	}
	for _, x := range b[1 : len(b)-1] {
		if x%12 != 0 {
			t.Fatalf("boundary %d not on a period", x)
		}
	}
	// Degenerate: more chunks than steps.
	b = chunkBounds(3, 10, 0)
	if b[len(b)-1] != 3 {
		t.Fatalf("bounds %v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("non-monotonic bounds %v", b)
		}
	}
}

func TestChunkedShortChunksDropPeriod(t *testing.T) {
	// Chunks shorter than two periods must silently fall back to
	// non-periodic compression and still round-trip.
	ds := datagen.SSH(0.08)
	eb := ds.AbsErrorBound(1e-2)
	p := Default(ds)
	p.Period = 12
	nChunks := ds.Dims[0] / 12 // every chunk is a single period
	blob, err := CompressChunked(ds, eb, p, Options{}, nChunks, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decompress(blob, DecompressOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.MaxAbsErr(ds.Data, got, ds.Validity()); e > eb*(1+1e-9) {
		t.Fatalf("bound violated: %g", e)
	}
}

func TestChunkedCorrupt(t *testing.T) {
	ds := smallHurricane()
	blob, err := CompressChunked(ds, ds.AbsErrorBound(1e-2), Default(ds), Options{}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decompress(nil, DecompressOptions{Workers: 1}); err == nil {
		t.Fatal("nil accepted")
	}
	if _, _, err := Decompress([]byte("CLZPx"), DecompressOptions{Workers: 1}); err == nil {
		t.Fatal("bad version accepted")
	}
	for _, cut := range []int{6, len(blob) / 2, len(blob) - 2} {
		if _, _, err := Decompress(blob[:cut], DecompressOptions{Workers: 1}); err == nil {
			t.Fatalf("truncated (%d) accepted", cut)
		}
	}
	// The unit decoder behind the magic dispatch must reject the container.
	if _, _, _, err := decompressAt(blob, DecompressOptions{}); err == nil {
		t.Fatal("unit decoder accepted a container")
	}
}
