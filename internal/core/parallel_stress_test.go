package core

import (
	"fmt"
	"sync"
	"testing"

	"cliz/internal/trace"
)

// TestChunkedStress drives the parallel container through mismatched
// chunk/worker combinations — more chunks than lead planes, more workers
// than chunks, workers=0 (GOMAXPROCS) — with a shared trace collector
// attached so the concurrent Record path is exercised too. Run with -race.
func TestChunkedStress(t *testing.T) {
	ds := smallHurricane()
	eb := ds.AbsErrorBound(1e-2)
	p := Default(ds)
	cases := []struct{ nChunks, workers int }{
		{1, 1},
		{2, 8},               // more workers than chunks
		{7, 2},               // more chunks than workers
		{5, 0},               // workers=0 -> GOMAXPROCS
		{ds.Dims[0] + 10, 3}, // more chunks than lead planes: clamped
		{ds.Dims[0], 0},      // one plane per chunk
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("chunks=%d_workers=%d", tc.nChunks, tc.workers), func(t *testing.T) {
			t.Parallel()
			var rec trace.Recorder
			blob, err := CompressChunked(ds, eb, p, Options{Trace: &rec}, tc.nChunks, tc.workers)
			if err != nil {
				t.Fatal(err)
			}
			// Decode the same blob concurrently with different worker
			// counts, all feeding one collector.
			var dec trace.Recorder
			var wg sync.WaitGroup
			errs := make([]error, 3)
			for i := 0; i < 3; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					data, dims, err := Decompress(blob, DecompressOptions{Workers: i, Trace: &dec})
					if err != nil {
						errs[i] = err
						return
					}
					if !dimsEqual(dims, ds.Dims) || len(data) != len(ds.Data) {
						errs[i] = fmt.Errorf("shape %v / %d points", dims, len(data))
						return
					}
					for j, v := range data {
						if diff := float64(v) - float64(ds.Data[j]); diff > eb*1.00001 || diff < -eb*1.00001 {
							errs[i] = fmt.Errorf("point %d: error %g exceeds bound %g", j, diff, eb)
							return
						}
					}
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("decoder %d: %v", i, err)
				}
			}
			if len(dec.Stages()) == 0 {
				t.Fatal("no decode stages recorded")
			}
		})
	}
}

// TestChunkedConcurrentCompress compresses the same dataset from several
// goroutines at once (the adapter cache path does this under a benchmark
// harness); -race must stay silent.
func TestChunkedConcurrentCompress(t *testing.T) {
	ds := smallHurricane()
	eb := ds.AbsErrorBound(1e-2)
	p := Default(ds)
	var wg sync.WaitGroup
	blobs := make([][]byte, 4)
	errs := make([]error, 4)
	for i := range blobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			blobs[i], errs[i] = CompressChunked(ds, eb, p, Options{}, 3, 2)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("compressor %d: %v", i, err)
		}
		if len(blobs[i]) == 0 {
			t.Fatalf("compressor %d: empty blob", i)
		}
	}
	// Deterministic pipeline => identical containers.
	for i := 1; i < len(blobs); i++ {
		if string(blobs[i]) != string(blobs[0]) {
			t.Fatalf("blob %d differs from blob 0 (%d vs %d bytes)", i, len(blobs[i]), len(blobs[0]))
		}
	}
}

// TestIntraBlobRaceStress hammers the intra-blob parallel encode and decode
// paths — sectioned prediction/reconstruction, sharded entropy coding, the
// pooled scratch buffers and parallel transposes — from several goroutines
// at once so `go test -race` observes them under real contention. Every
// iteration also checks the determinism contract against a reference blob.
func TestIntraBlobRaceStress(t *testing.T) {
	ds := smallSSH()
	eb := ds.AbsErrorBound(1e-2)
	p := Default(ds)
	p.Period = 12
	p.Classify = true
	ref, err := Compress(ds, eb, p, Options{Workers: 4, sectionLeadFloor: 8})
	if err != nil {
		t.Fatal(err)
	}
	refOut, _, err := Decompress(ref, DecompressOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	refRaw := floatsToBytes(refOut)

	const goroutines = 4
	const iters = 3
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				blob, err := Compress(ds, eb, p, Options{Workers: 4, sectionLeadFloor: 8})
				if err != nil {
					errs[g] = err
					return
				}
				if string(blob) != string(ref) {
					errs[g] = fmt.Errorf("iteration %d: encode not deterministic", it)
					return
				}
				out, _, err := Decompress(blob, DecompressOptions{Workers: 4})
				if err != nil {
					errs[g] = err
					return
				}
				if string(floatsToBytes(out)) != string(refRaw) {
					errs[g] = fmt.Errorf("iteration %d: decode output differs", it)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}
