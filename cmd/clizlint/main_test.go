package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintModule writes a tiny single-package module with one deliberate
// taintsize finding and returns its directory.
func lintModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module lintme\n\ngo 1.22\n",
		"decode.go": `package core

import "encoding/binary"

func Decode(b []byte) []byte {
	n := binary.LittleEndian.Uint32(b)
	out := make([]byte, n)
	return out
}
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runIn runs the CLI from dir, capturing output.
func runIn(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunReportsFindings(t *testing.T) {
	dir := lintModule(t)
	code, stdout, _ := runIn(t, dir, ".")
	if code != 1 {
		t.Fatalf("want exit 1 on findings, got %d (stdout %q)", code, stdout)
	}
	if !strings.Contains(stdout, "taintsize") {
		t.Fatalf("want a taintsize finding, got %q", stdout)
	}
}

func TestBaselineAdoptAndRatchet(t *testing.T) {
	dir := lintModule(t)
	basePath := filepath.Join(dir, "lint.baseline")

	// Adopt: record current findings, then the lint is clean.
	code, _, stderr := runIn(t, dir, "-baseline", basePath, "-update-baseline", ".")
	if code != 0 {
		t.Fatalf("update-baseline: want exit 0, got %d (%s)", code, stderr)
	}
	code, stdout, _ := runIn(t, dir, "-baseline", basePath, ".")
	if code != 0 {
		t.Fatalf("baselined run: want exit 0, got %d (stdout %q)", code, stdout)
	}

	// A new finding not in the baseline fails.
	extra := `package core

import "encoding/binary"

func Decode2(b []byte) []byte {
	n := binary.LittleEndian.Uint64(b)
	return make([]byte, n)
}
`
	if err := os.WriteFile(filepath.Join(dir, "decode2.go"), []byte(extra), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ = runIn(t, dir, "-baseline", basePath, ".")
	if code != 1 {
		t.Fatalf("new finding: want exit 1, got %d (stdout %q)", code, stdout)
	}
	if !strings.Contains(stdout, "decode2.go") {
		t.Fatalf("want only the new finding reported, got %q", stdout)
	}
	if strings.Contains(stdout, "decode.go:") {
		t.Fatalf("baselined finding must stay suppressed, got %q", stdout)
	}

	// Ratchet: fix the original finding; the run is clean but reports the
	// stale entry so the baseline can be tightened.
	if err := os.Remove(filepath.Join(dir, "decode2.go")); err != nil {
		t.Fatal(err)
	}
	fixed := `package core

func Decode(b []byte) []byte {
	return append([]byte(nil), b...)
}
`
	if err := os.WriteFile(filepath.Join(dir, "decode.go"), []byte(fixed), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = runIn(t, dir, "-baseline", basePath, ".")
	if code != 0 {
		t.Fatalf("fixed run: want exit 0, got %d", code)
	}
	if !strings.Contains(stderr, "no longer fire") {
		t.Fatalf("want stale-entry notice, got %q", stderr)
	}

	// Ratchet down: regenerating shrinks the baseline to empty.
	code, _, _ = runIn(t, dir, "-baseline", basePath, "-update-baseline", ".")
	if code != 0 {
		t.Fatalf("ratchet update: want exit 0, got %d", code)
	}
	data, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line != "" && !strings.HasPrefix(line, "#") {
			t.Fatalf("ratcheted baseline must be empty, got %q", line)
		}
	}
}

func TestUpdateBaselineRequiresPath(t *testing.T) {
	dir := lintModule(t)
	code, _, stderr := runIn(t, dir, "-update-baseline", ".")
	if code != 2 {
		t.Fatalf("want usage error, got %d", code)
	}
	if !strings.Contains(stderr, "-baseline") {
		t.Fatalf("want flag hint, got %q", stderr)
	}
}
