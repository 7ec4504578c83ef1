package core

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cliz/internal/dataset"
	"cliz/internal/entropy"
	"cliz/internal/grid"
	"cliz/internal/predict"
)

var updateGolden = flag.Bool("update", false, "regenerate golden fixtures under testdata/golden")

// goldenCases pins the on-disk blob format: every pipeline variant has a
// committed blob plus its expected reconstruction, and the decoder must keep
// reproducing that reconstruction bit-for-bit. Catching an accidental format
// or decoder change is the point. `go test ./internal/core -run
// TestGoldenFixtures -update` rebuilds the set as real version-1 blobs (see
// v1Blob) together with their decodes.
var goldenCases = []struct {
	name string
	ds   func() *dataset.Dataset
	pipe func(ds *dataset.Dataset) Pipeline
	opt  Options
	rel  float64
	// chunks > 0 compresses through the parallel container.
	chunks int
}{
	{
		name: "cubic-default",
		ds:   smallHurricane,
		pipe: func(ds *dataset.Dataset) Pipeline { return Default(ds) },
		rel:  1e-2,
	},
	{
		name: "linear-perm-fuse",
		ds:   smallHurricane,
		pipe: func(ds *dataset.Dataset) Pipeline {
			p := Default(ds)
			p.Perm = []int{2, 0, 1}
			p.Fusion = grid.Fusion{Groups: []int{1, 2}}
			p.Fitting = predict.Linear
			return p
		},
		rel: 1e-3,
	},
	{
		name: "lorenzo",
		ds:   smallHurricane,
		pipe: func(ds *dataset.Dataset) Pipeline {
			p := Default(ds)
			p.Fitting = predict.Lorenzo
			return p
		},
		rel: 1e-2,
	},
	{
		name: "classify-alpha",
		ds:   smallHurricane,
		pipe: func(ds *dataset.Dataset) Pipeline {
			p := Default(ds)
			p.Classify = true
			p.LevelAlpha = 1.5
			return p
		},
		rel: 1e-2,
	},
	{
		name: "periodic-mask-classify",
		ds:   smallSSH,
		pipe: func(ds *dataset.Dataset) Pipeline {
			p := Default(ds)
			p.Period = 12
			p.Classify = true
			return p
		},
		rel: 1e-2,
	},
	{
		name: "rans",
		ds:   smallHurricane,
		pipe: func(ds *dataset.Dataset) Pipeline { return Default(ds) },
		opt:  Options{Entropy: entropy.RANS},
		rel:  1e-2,
	},
	{
		name: "chunked",
		ds:   smallHurricane,
		pipe: func(ds *dataset.Dataset) Pipeline { return Default(ds) },
		rel:  1e-2,
		// 3 chunks, exercising the CLZP container framing.
		chunks: 3,
	},
}

func goldenPath(name, ext string) string {
	return filepath.Join("testdata", "golden", name+ext)
}

func TestGoldenFixtures(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			ds := tc.ds()
			eb := ds.AbsErrorBound(tc.rel)
			p := tc.pipe(ds)
			if *updateGolden {
				var blob []byte
				var err error
				if tc.chunks > 0 {
					blob, err = CompressChunked(ds, eb, p, tc.opt, tc.chunks, 2)
				} else {
					blob, err = Compress(ds, eb, p, tc.opt)
				}
				if err != nil {
					t.Fatal(err)
				}
				blob = v1Blob(t, blob)
				recon, _, err := Decompress(blob, DecompressOptions{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath(tc.name, ".clz"), blob, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath(tc.name, ".f32"), floatsToBytes(recon), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s: %d-byte blob, %d points", tc.name, len(blob), len(recon))
				return
			}
			blob, err := os.ReadFile(goldenPath(tc.name, ".clz"))
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			wantRaw, err := os.ReadFile(goldenPath(tc.name, ".f32"))
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			recon, dims, err := Decompress(blob, DecompressOptions{Workers: 2})
			if err != nil {
				t.Fatalf("stored blob no longer decodes: %v", err)
			}
			if !dimsEqual(dims, ds.Dims) {
				t.Fatalf("decoded dims %v, dataset has %v", dims, ds.Dims)
			}
			// Bit-exact: the decoder must reproduce the committed
			// reconstruction down to the last float bit.
			got := floatsToBytes(recon)
			if !bytes.Equal(got, wantRaw) {
				t.Fatalf("decode of %s.clz changed: %s", tc.name, firstFloatDiff(got, wantRaw))
			}
			// And the reconstruction must still respect the error bound
			// against the deterministic source field.
			checkBound(t, ds, recon, eb)
		})
	}
}

// v1Blob rewrites a blob from the current (v3) writer in the version-1
// layout: version byte 1, no psections field and no integrity directory,
// with every section payload unchanged. It reverses the re-wrap in
// TestWorkers1MatchesV1Golden, recursing into periodic template and
// residual children and into CLZP chunks. The blob must come from a
// Workers=1 encode, since v1 has a single predict section and no sharded
// entropy blocks.
func v1Blob(t *testing.T, blob []byte) []byte {
	t.Helper()
	if IsChunked(blob) {
		dims, chunks, err := parseChunkedContainer(blob)
		if err != nil {
			t.Fatal(err)
		}
		out := append([]byte(parMagic), version1)
		out = appendUvarint(out, uint64(len(dims)))
		for _, d := range dims {
			out = appendUvarint(out, uint64(d))
		}
		out = appendUvarint(out, uint64(len(chunks)))
		for _, ch := range chunks {
			out = appendUvarint(out, uint64(ch.lead))
			out = appendSection(out, v1Blob(t, ch.blob))
		}
		return out
	}
	pos := 0
	h, err := parseHeader(blob, &pos)
	if err != nil {
		t.Fatal(err)
	}
	if h.version != version3 || h.psections != 1 {
		t.Fatalf("v1Blob needs a Workers=1 v3 blob, got version %d with %d sections", h.version, h.psections)
	}
	secs := h.secs
	h.version = version1
	out := encodeHeader(h)
	out = out[:len(out)-1] // drop the psections field (1 is a one-byte varint)
	for _, ent := range secs {
		sec, err := readSection(blob, &pos)
		if err != nil {
			t.Fatal(err)
		}
		if ent.id == secTemplate || ent.id == secResidual {
			sec = v1Blob(t, sec)
		}
		out = appendSection(out, sec)
	}
	if pos != len(blob) {
		t.Fatalf("v1Blob: %d trailing bytes", len(blob)-pos)
	}
	return out
}

func floatsToBytes(data []float32) []byte {
	raw := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	return raw
}

func firstFloatDiff(got, want []byte) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d vs %d bytes", len(got), len(want))
	}
	for i := 0; i+4 <= len(got); i += 4 {
		g := binary.LittleEndian.Uint32(got[i:])
		w := binary.LittleEndian.Uint32(want[i:])
		if g != w {
			return fmt.Sprintf("point %d: got %g (0x%08x), want %g (0x%08x)",
				i/4, math.Float32frombits(g), g, math.Float32frombits(w), w)
		}
	}
	return "no difference (length mismatch?)"
}

// checkBound asserts |recon - orig| <= eb at every valid point, with a tiny
// float32 rounding allowance.
func checkBound(t *testing.T, ds *dataset.Dataset, recon []float32, eb float64) {
	t.Helper()
	valid := ds.Validity()
	tol := eb * (1 + 1e-5)
	for i, v := range ds.Data {
		if valid != nil && !valid[i] {
			continue
		}
		if d := math.Abs(float64(recon[i]) - float64(v)); d > tol {
			t.Fatalf("point %d: |%g - %g| = %g > eb %g", i, recon[i], v, d, eb)
		}
	}
}
