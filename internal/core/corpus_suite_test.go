package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// requireCleanError asserts the decoder contract on hostile input: a
// decode entry point either succeeds or returns an error classifiable as
// ErrCorrupt via errors.Is — never a panic, never an unwrapped error.
func requireCleanError(t *testing.T, op string, err error) {
	t.Helper()
	if err != nil && !errors.Is(err, ErrCorrupt) {
		t.Errorf("%s: error not classifiable as ErrCorrupt: %v", op, err)
	}
}

// TestFuzzCorpusSeeds strengthens TestFuzzCorpus (which only requires
// "no panic") into the full decoder-hardening contract: every checked-in
// fuzz corpus seed is run through every decode entry point, and each
// must either succeed or return an error wrapping ErrCorrupt so callers
// can classify damage with errors.Is. This is the table-driven face of
// the same contract cmd/clizlint enforces statically.
func TestFuzzCorpusSeeds(t *testing.T) {
	dir := fuzzCorpusDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read corpus dir: %v", err)
	}
	const minSeeds = 18
	if len(entries) < minSeeds {
		t.Fatalf("fuzz corpus shrank: %d seeds < %d", len(entries), minSeeds)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			blob, err := parseCorpusEntry(string(raw))
			if err != nil {
				t.Fatalf("seed %s: %v", e.Name(), err)
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on seed %s: %v", e.Name(), r)
				}
			}()
			for _, ep := range decodeEntryPoints {
				rep, err := ep.run(blob)
				requireCleanError(t, ep.name, err)
				// Every report-returning entry point must produce a
				// structured report, error or not.
				if ep.name != "Decompress" && (rep == nil || rep.Kind == "") {
					t.Errorf("%s: missing or kindless report", ep.name)
				}
			}
			if _, err := Inspect(blob); err != nil {
				requireCleanError(t, "Inspect", err)
			}
		})
	}
}
