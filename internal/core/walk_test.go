package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// flattenInfo lists an Inspect tree as Verify paths: each section under its
// parent's prefix, a periodic child right after the section that holds it,
// and chunks under "chunk[i]/".
func flattenInfo(b *BlobInfo, prefix string, out []SectionCheck) []SectionCheck {
	for _, s := range b.Sections {
		out = append(out, SectionCheck{Path: prefix + s.Name, Bytes: s.Bytes})
		for _, c := range b.Children {
			if c.Kind == s.Name {
				out = flattenInfo(c, prefix+s.Name+"/", out)
			}
		}
	}
	if b.Kind == "chunked" {
		for i, c := range b.Children {
			out = flattenInfo(c, fmt.Sprintf("chunk[%d]/", i), out)
		}
	}
	return out
}

// TestInspectMatchesVerifyOnGoldens walks every committed fixture (v1, v2
// and v3; unit, periodic and chunked) and requires Inspect and Verify, both
// projections of the one structural walk, to list the same sections, path
// for path and byte for byte.
func TestInspectMatchesVerifyOnGoldens(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*.clz"))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	versions := map[int]bool{}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".clz")
		t.Run(name, func(t *testing.T) {
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			info, err := Inspect(blob)
			if err != nil {
				t.Fatal(err)
			}
			rep := Verify(blob)
			if !rep.OK() {
				t.Fatalf("golden fixture does not verify:\n%s", rep)
			}
			if rep.Kind != info.Kind {
				t.Fatalf("Verify kind %q, Inspect kind %q", rep.Kind, info.Kind)
			}
			got := flattenInfo(info, "", nil)
			if len(got) != len(rep.Sections) {
				t.Fatalf("Inspect lists %d sections, Verify %d:\n%v\n%s", len(got), len(rep.Sections), got, rep)
			}
			for i, s := range rep.Sections {
				if got[i].Path != s.Path || got[i].Bytes != s.Bytes {
					t.Fatalf("section %d: Inspect %s (%d bytes), Verify %s (%d bytes)",
						i, got[i].Path, got[i].Bytes, s.Path, s.Bytes)
				}
			}
			kinds[rep.Kind] = true
			versions[rep.Version] = true
		})
	}
	for _, k := range []string{"unit", "periodic", "chunked"} {
		if !kinds[k] {
			t.Errorf("no %s fixture walked", k)
		}
	}
	for v := 1; v <= 3; v++ {
		if !versions[v] {
			t.Errorf("no v%d fixture walked", v)
		}
	}
}

// TestWalkKeepsGoingPastChecksumFailures damages two sections of one v3
// blob: Verify must name both, while the decoder still stops at the first
// with the SectionError that names it.
func TestWalkKeepsGoingPastChecksumFailures(t *testing.T) {
	ds := tinyField()
	blob, err := Compress(ds, ds.AbsErrorBound(1e-3), Default(ds), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b blobRead
	if err := readBlob(blob, &b); err != nil || b.err() != nil {
		t.Fatalf("intact blob: %v / %v", err, b.err())
	}
	if ids := []byte{b.secs[0].id, b.secs[1].id}; b.n != 2 || ids[0] != secBins || ids[1] != secLiterals {
		t.Fatalf("tiny fixture sections %v, want [bins literals]", ids)
	}
	mut := append([]byte(nil), blob...)
	mut[b.secs[1].start-b.secs[0].bytes/2] ^= 0x5A // inside the bins payload
	mut[b.end-b.secs[1].bytes/2] ^= 0x5A           // inside the literals payload
	damaged := Verify(mut).Damaged()
	if len(damaged) != 2 || damaged[0] != "bins" || damaged[1] != "literals" {
		t.Fatalf("damaged = %v, want [bins literals]", damaged)
	}
	_, _, err = Decompress(mut, DecompressOptions{})
	var se *SectionError
	if !errors.As(err, &se) || se.Section != "bins" || !errors.Is(err, ErrChecksum) {
		t.Fatalf("decode error %v, want a checksum SectionError naming bins", err)
	}
	if _, err := Inspect(mut); err != nil {
		t.Fatalf("Inspect refused a blob whose framing is intact: %v", err)
	}
}

// TestCompressRejectsNonFiniteBound: a blob written under a non-finite
// bound would fail its own header check on decode, so Compress refuses it.
func TestCompressRejectsNonFiniteBound(t *testing.T) {
	ds := tinyField()
	for _, eb := range []float64{math.Inf(1), math.NaN(), 0, -1} {
		if _, err := Compress(ds, eb, Default(ds), Options{}); err == nil {
			t.Errorf("Compress accepted eb=%g", eb)
		}
	}
}
