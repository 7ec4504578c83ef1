package core

import (
	"bytes"
	"os"
	"testing"
)

// TestGoldenV2Fixtures pins decode-side backward compatibility for the
// version-2 on-disk format (sectioned prediction, sharded entropy blocks).
// The fixtures are frozen: the writer has moved on to v3 (integrity
// checksums), so — exactly like the v1 fixtures — these blobs are never
// regenerated and must keep decoding bit-exactly at every worker count.
func TestGoldenV2Fixtures(t *testing.T) {
	ds := smallSSH()
	eb := ds.AbsErrorBound(1e-2)
	cases := []string{"v2-parallel-w4", "v2-parallel-w8"}
	for _, name := range cases {
		t.Run(name, func(t *testing.T) {
			blob, err := os.ReadFile(goldenPath(name, ".clz"))
			if err != nil {
				t.Fatalf("%v (v2 fixtures are frozen; do not regenerate)", err)
			}
			wantRaw, err := os.ReadFile(goldenPath(name, ".f32"))
			if err != nil {
				t.Fatal(err)
			}
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
						w, name, firstFloatDiff(floatsToBytes(recon), wantRaw))
				}
				checkBound(t, ds, recon, eb)
			}
			// v2 blobs carry no checksums; Verify must still walk them
			// structurally and report them intact (not damaged).
			rep := Verify(blob)
			if !rep.OK() {
				t.Fatalf("Verify rejected an intact v2 fixture:\n%s", rep)
			}
			if rep.Checksummed {
				t.Fatal("Verify claims a v2 blob is checksummed")
			}
			if rep.Version != 2 {
				t.Fatalf("Verify reports version %d for a v2 fixture", rep.Version)
			}
		})
	}
}
