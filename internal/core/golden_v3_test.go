package core

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var updateGoldenV3 = flag.Bool("update-v3", false,
	"regenerate the v3 (integrity-checksummed) golden fixtures under testdata/golden")

// TestGoldenV3Fixtures pins the version-3 on-disk format: everything v2 had
// (sectioned prediction, sharded entropy blocks) plus the integrity
// directory — per-section CRC-32C checksums and a header checksum. Unlike
// the frozen v1/v2 fixtures these match the current writer, so the encoder
// must reproduce them byte-for-byte. Regenerate only after a deliberate
// format change, with `go test ./internal/core -run TestGoldenV3 -update-v3`.
func TestGoldenV3Fixtures(t *testing.T) {
	ds := smallSSH()
	eb := ds.AbsErrorBound(1e-2)
	p := Default(ds)
	p.Period = 12
	p.Classify = true
	cases := []struct {
		name    string
		workers int
	}{
		{"v3-parallel-w4", 4},
		{"v3-parallel-w8", 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if *updateGoldenV3 {
				blob, err := Compress(ds, eb, p, Options{Workers: tc.workers, sectionLeadFloor: 8})
				if err != nil {
					t.Fatal(err)
				}
				recon, _, err := Decompress(blob, DecompressOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath(tc.name, ".clz"), blob, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath(tc.name, ".f32"), floatsToBytes(recon), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s: %d-byte blob", tc.name, len(blob))
				return
			}
			blob, err := os.ReadFile(goldenPath(tc.name, ".clz"))
			if err != nil {
				t.Fatalf("%v (regenerate with -update-v3)", err)
			}
			wantRaw, err := os.ReadFile(goldenPath(tc.name, ".f32"))
			if err != nil {
				t.Fatalf("%v (regenerate with -update-v3)", err)
			}
			// The encoder must still reproduce the committed blob exactly
			// (determinism for a fixed worker count)…
			reblob, err := Compress(ds, eb, p, Options{Workers: tc.workers, sectionLeadFloor: 8})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reblob, blob) {
				t.Fatalf("encode of %s changed (%d vs %d bytes)", tc.name, len(reblob), len(blob))
			}
			// …and decode must be bit-exact at every worker count.
			for _, w := range []int{1, 4} {
				recon, dims, err := Decompress(blob, DecompressOptions{Workers: w})
				if err != nil {
					t.Fatalf("decode workers=%d: %v", w, err)
				}
				if !dimsEqual(dims, ds.Dims) {
					t.Fatalf("dims %v", dims)
				}
				if !bytes.Equal(floatsToBytes(recon), wantRaw) {
					t.Fatalf("decode workers=%d of %s.clz changed: %s",
						w, tc.name, firstFloatDiff(floatsToBytes(recon), wantRaw))
				}
				checkBound(t, ds, recon, eb)
			}
			// A v3 fixture must verify clean, checksummed end to end.
			rep := Verify(blob)
			if !rep.OK() {
				t.Fatalf("Verify rejected an intact v3 fixture:\n%s", rep)
			}
			if !rep.Checksummed {
				t.Fatal("Verify reports a v3 fixture as not checksummed")
			}
			if rep.Version != 3 {
				t.Fatalf("Verify reports version %d for a v3 fixture", rep.Version)
			}
		})
	}
}
