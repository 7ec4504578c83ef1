package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cliz/internal/core"
	"cliz/internal/dataset"
)

// chunkedBlob writes a 4-chunk CLZP container of a small smooth field.
func chunkedBlob(t *testing.T) []byte {
	t.Helper()
	dims := []int{8, 16, 16}
	data := make([]float32, dims[0]*dims[1]*dims[2])
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 23))
	}
	ds := &dataset.Dataset{Name: "f", Data: data, Dims: dims}
	blob, err := core.CompressChunked(ds, 1e-3, core.Default(ds), core.Options{}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func writeBlob(t *testing.T, blob []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f.clz")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestVerifyIntactContainer(t *testing.T) {
	var out, errb bytes.Buffer
	if st := run([]string{"-verify", "-decode", writeBlob(t, chunkedBlob(t))}, &out, &errb); st != 0 {
		t.Fatalf("status %d, stderr %q", st, errb.String())
	}
	for _, want := range []string{"chunked", "chunk[3]/literals", "decode stages"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestVerifyReportsDamagedChunkHeader flips a byte inside chunk 2's header:
// Inspect cannot walk that chunk, but -verify must still print the damage
// report naming chunk[2]/header and exit non-zero.
func TestVerifyReportsDamagedChunkHeader(t *testing.T) {
	blob := chunkedBlob(t)
	off := 0
	for c := 0; c <= 2; c++ {
		i := bytes.Index(blob[off:], []byte("CLZ1"))
		if i < 0 {
			t.Fatalf("chunk %d not found", c)
		}
		off += i + 4
	}
	blob[off+4] ^= 0x40 // inside chunk 2's error-bound field

	var out, errb bytes.Buffer
	if st := run([]string{"-verify", writeBlob(t, blob)}, &out, &errb); st == 0 {
		t.Fatalf("damaged container exited 0:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "chunk 2") {
		t.Fatalf("stderr does not name chunk 2: %q", errb.String())
	}
	for _, want := range []string{"DAMAGED", "chunk[2]/header", "FAIL"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("damage report lacks %q:\n%s", want, out.String())
		}
	}
}

func TestUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if st := run(nil, &out, &errb); st != 2 {
		t.Fatalf("no arguments: status %d, want 2", st)
	}
	if st := run([]string{filepath.Join(t.TempDir(), "missing.clz")}, &out, &errb); st != 1 {
		t.Fatalf("missing file: status %d, want 1", st)
	}
}
