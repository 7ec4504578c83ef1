package core

import (
	"testing"
)

// FuzzDecompress drives the blob decoder with arbitrary inputs (run with
// `go test -fuzz=FuzzDecompress ./internal/core`); the seeds — one valid
// blob per pipeline family — always run as part of the normal test suite.
func FuzzDecompress(f *testing.F) {
	ds := smallHurricane()
	eb := ds.AbsErrorBound(1e-2)
	plain, err := Compress(ds, eb, Default(ds), Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plain)
	ssh := smallSSH()
	p := Default(ssh)
	p.Period = 12
	p.Classify = true
	periodic, err := Compress(ssh, ssh.AbsErrorBound(1e-2), p, Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(periodic)
	chunked, err := CompressChunked(ds, eb, Default(ds), Options{}, 2, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(chunked)
	f.Add([]byte("CLZ1"))
	f.Add([]byte("CLZP"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, blob []byte) {
		// Must never panic; errors and garbage output are acceptable.
		for _, ep := range decodeEntryPoints {
			_, _ = ep.run(blob)
		}
		_, _ = Inspect(blob)
	})
}

// decodeEntryPoints are the exported decode functions every hostile-input
// test drives. Each takes a blob of any kind (unit or chunked container) and
// must fail with an error, never a panic; all but Decompress return a
// verification report.
var decodeEntryPoints = []struct {
	name string
	run  func(blob []byte) (*VerifyReport, error)
}{
	{"Decompress", func(b []byte) (*VerifyReport, error) {
		_, _, err := Decompress(b, DecompressOptions{Workers: 1})
		return nil, err
	}},
	{"DecompressVerified", func(b []byte) (*VerifyReport, error) {
		_, _, rep, err := DecompressVerified(b, DecompressOptions{})
		return rep, err
	}},
	{"DecompressPartial", func(b []byte) (*VerifyReport, error) {
		_, _, rep, err := DecompressPartial(b, DecompressOptions{})
		return rep, err
	}},
	{"Verify", func(b []byte) (*VerifyReport, error) { return Verify(b), nil }},
}
