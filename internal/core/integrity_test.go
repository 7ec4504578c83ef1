package core

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"cliz/internal/dataset"
	"cliz/internal/grid"
	"cliz/internal/interp"
	"cliz/internal/lorenzo"
)

// tinyField builds a small smooth dataset so exhaustive byte-flip sweeps
// stay fast while still exercising multi-section blobs.
func tinyField() *dataset.Dataset {
	dims := []int{6, 12, 12}
	data := make([]float32, grid.Volume(dims))
	for t := 0; t < dims[0]; t++ {
		for i := 0; i < dims[1]; i++ {
			for j := 0; j < dims[2]; j++ {
				data[(t*dims[1]+i)*dims[2]+j] = float32(
					math.Sin(float64(t)/3) + math.Cos(float64(i)/5)*float64(j)/12)
			}
		}
	}
	return &dataset.Dataset{Name: "tiny", Data: data, Dims: dims}
}

func TestVerifyIntactV3(t *testing.T) {
	ds := tinyField()
	eb := ds.AbsErrorBound(1e-3)
	blob, err := Compress(ds, eb, Default(ds), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := Verify(blob)
	if !rep.OK() {
		t.Fatalf("intact blob reported damaged:\n%s", rep)
	}
	if !rep.Checksummed || rep.Version != 3 {
		t.Fatalf("version=%d checksummed=%v, want v3 with checksums", rep.Version, rep.Checksummed)
	}
	want := map[string]bool{"header": false, "bins": false, "literals": false}
	for _, s := range rep.Sections {
		if _, ok := want[s.Path]; ok {
			want[s.Path] = true
		}
		if !s.Checksummed {
			t.Fatalf("section %q not checksummed in a v3 blob", s.Path)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("section %q missing from report:\n%s", name, rep)
		}
	}
}

// TestByteFlipNeverSilent is the integrity property test: corrupting any
// single byte of a v3 blob must yield a decode error or a VerifyReport
// naming damage — never a silent success. CRC-32C detects every single-byte
// error in the covered regions (header, directory, payloads); the only
// uncovered bytes are the section length varints, whose corruption
// mis-frames a later read into a deterministic CRC or framing failure.
func TestByteFlipNeverSilent(t *testing.T) {
	ds := tinyField()
	eb := ds.AbsErrorBound(1e-3)
	blob, err := Compress(ds, eb, Default(ds), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mut := make([]byte, len(blob))
	for _, delta := range []byte{0x01, 0xFF} {
		for i := range blob {
			copy(mut, blob)
			mut[i] ^= delta
			_, _, decErr := Decompress(mut, DecompressOptions{})
			if decErr != nil {
				continue
			}
			if rep := Verify(mut); !rep.OK() {
				continue
			}
			t.Fatalf("flipping byte %d (of %d) with ^%#x decoded cleanly and verified OK",
				i, len(blob), delta)
		}
	}
}

// TestVerifyNamesDamagedSection corrupts one byte inside a known section
// payload and requires Verify to blame exactly that section, with the other
// sections still reported intact, and Decompress to fail with a
// SectionError naming the same section.
func TestVerifyNamesDamagedSection(t *testing.T) {
	ds := tinyField()
	eb := ds.AbsErrorBound(1e-3)
	blob, err := Compress(ds, eb, Default(ds), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Locate the bins payload by re-walking the framing.
	pos := 0
	h, err := parseHeader(blob, &pos)
	if err != nil {
		t.Fatal(err)
	}
	if h.flags&flagClassify != 0 || h.flags&(flagMask|flagPointMask) != 0 {
		t.Fatalf("tiny fixture grew unexpected sections (flags %#x)", h.flags)
	}
	binsStart := pos
	sec, err := readSection(blob, &binsStart) // advances past bins
	if err != nil {
		t.Fatal(err)
	}
	mid := binsStart - len(sec)/2 // middle of the bins payload
	mut := append([]byte(nil), blob...)
	mut[mid] ^= 0xA5

	rep := Verify(mut)
	if rep.OK() {
		t.Fatalf("Verify missed the corruption:\n%s", rep)
	}
	damaged := rep.Damaged()
	if len(damaged) != 1 || damaged[0] != "bins" {
		t.Fatalf("damaged = %v, want exactly [bins]\n%s", damaged, rep)
	}
	for _, s := range rep.Sections {
		if s.Path != "bins" && !s.OK {
			t.Fatalf("intact section %q reported damaged:\n%s", s.Path, rep)
		}
	}

	_, _, decErr := Decompress(mut, DecompressOptions{})
	if decErr == nil {
		t.Fatal("Decompress accepted the corrupted blob")
	}
	if !errors.Is(decErr, ErrChecksum) || !errors.Is(decErr, ErrCorrupt) {
		t.Fatalf("decode error %v does not wrap ErrChecksum/ErrCorrupt", decErr)
	}
	var se *SectionError
	if !errors.As(decErr, &se) || se.Section != "bins" {
		t.Fatalf("decode error %v does not name section bins", decErr)
	}
}

func TestDecompressVerifiedRoundTrip(t *testing.T) {
	ds := tinyField()
	eb := ds.AbsErrorBound(1e-3)
	blob, err := Compress(ds, eb, Default(ds), Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := Decompress(blob, DecompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, dims, rep, err := DecompressVerified(blob, DecompressOptions{BoundCheckEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !dimsEqual(dims, ds.Dims) {
		t.Fatalf("dims %v", dims)
	}
	if !bytes.Equal(floatsToBytes(got), floatsToBytes(plain)) {
		t.Fatal("verified decode differs from plain decode")
	}
	if !rep.OK() {
		t.Fatalf("report not OK:\n%s", rep)
	}
	if rep.BoundChecked != int64(len(ds.Data)) {
		t.Fatalf("BoundChecked = %d, want every one of %d points", rep.BoundChecked, len(ds.Data))
	}

	// Sampled checking counts fewer points but still succeeds.
	_, _, rep, err = DecompressVerified(blob, DecompressOptions{BoundCheckEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BoundChecked <= 0 || rep.BoundChecked >= int64(len(ds.Data)) {
		t.Fatalf("sampled BoundChecked = %d of %d", rep.BoundChecked, len(ds.Data))
	}

	// Corruption fails the verified decode before any payload is touched.
	mut := append([]byte(nil), blob...)
	mut[len(mut)-1] ^= 0xFF
	data, _, rep, err := DecompressVerified(mut, DecompressOptions{})
	if err == nil || data != nil {
		t.Fatal("verified decode accepted a corrupted blob")
	}
	if rep.OK() || len(rep.Damaged()) == 0 {
		t.Fatalf("report did not flag the damage:\n%s", rep)
	}
}

// TestVerifyBuffersCatchesTamperedRecon drives both prediction engines'
// verify mode directly: an output array that disagrees with what the bins
// regenerate must be rejected.
func TestVerifyBuffersCatchesTamperedRecon(t *testing.T) {
	ds := tinyField()
	eb := ds.AbsErrorBound(1e-3)
	vol := len(ds.Data)
	lay := grid.IdentityLayout(ds.Dims)

	t.Run("lorenzo", func(t *testing.T) {
		cfg := lorenzo.Config{EB: eb, Radius: 512}
		bins := make([]int32, vol)
		recon := append([]float32(nil), ds.Data...)
		lits, err := lorenzo.CompressLayout(recon, lay, cfg, bins)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := lorenzo.VerifyLayout(bins, lits, lay, cfg, recon, 1); err != nil || n != vol {
			t.Fatalf("intact recon: n=%d err=%v", n, err)
		}
		recon[vol/2] += float32(10 * eb)
		if _, err := lorenzo.VerifyLayout(bins, lits, lay, cfg, recon, 1); err == nil {
			t.Fatal("tampered recon passed verification")
		}
	})
	t.Run("interp", func(t *testing.T) {
		cfg := interp.Config{EB: eb, Radius: 512}
		bins := make([]int32, vol)
		recon := append([]float32(nil), ds.Data...)
		lits, err := interp.CompressLayout(recon, lay, cfg, bins)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := interp.VerifyLayout(bins, lits, lay, cfg, recon, 1); err != nil || n != vol {
			t.Fatalf("intact recon: n=%d err=%v", n, err)
		}
		recon[vol/2] += float32(10 * eb)
		if _, err := interp.VerifyLayout(bins, lits, lay, cfg, recon, 1); err == nil {
			t.Fatal("tampered recon passed verification")
		}
	})
}

func TestDecompressPartialSalvagesIntactChunks(t *testing.T) {
	ds := tinyField()
	eb := ds.AbsErrorBound(1e-3)
	blob, err := CompressChunked(ds, eb, Default(ds), Options{}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	pristine, _, err := Decompress(blob, DecompressOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Inputs: the middle chunk damaged (salvageable), then every chunk
	// damaged (nothing decodable).
	for _, damaged := range [][]int{{1}, {0, 1, 2}} {
		// Corrupt the chosen chunks' payloads (the parsed chunk blobs alias
		// mut).
		mut := append([]byte(nil), blob...)
		_, chunks, err := parseChunkedContainer(mut)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunks) != 3 {
			t.Fatalf("%d chunks", len(chunks))
		}
		for _, c := range damaged {
			chunks[c].blob[len(chunks[c].blob)/2] ^= 0xFF
		}

		// The strict paths refuse the whole container.
		if _, _, err := Decompress(mut, DecompressOptions{Workers: 2}); err == nil {
			t.Fatalf("damaged %v: strict chunked decode accepted a damaged container", damaged)
		}
		if _, _, _, err := DecompressVerified(mut, DecompressOptions{}); err == nil {
			t.Fatalf("damaged %v: DecompressVerified accepted a damaged container", damaged)
		}

		got, dims, rep, err := DecompressPartial(mut, DecompressOptions{})
		if len(rep.DamagedChunks) != len(damaged) {
			t.Fatalf("damaged %v: DamagedChunks = %+v", damaged, rep.DamagedChunks)
		}
		for i, c := range damaged {
			if rep.DamagedChunks[i].Index != c {
				t.Fatalf("damaged %v: DamagedChunks = %+v", damaged, rep.DamagedChunks)
			}
		}
		if rep.OK() {
			t.Fatalf("damaged %v: report claims OK despite damaged chunks", damaged)
		}
		if len(damaged) == len(chunks) {
			// Nothing was decodable: the error says so and no field comes
			// back, while the report still names every damaged chunk.
			if !errors.Is(err, ErrCorrupt) || got != nil {
				t.Fatalf("all chunks damaged: err=%v, %d points returned", err, len(got))
			}
			continue
		}
		if err != nil {
			t.Fatalf("damaged %v: partial decode: %v", damaged, err)
		}
		if !dimsEqual(dims, ds.Dims) {
			t.Fatalf("dims %v", dims)
		}
		dmg := rep.DamagedChunks[0]
		plane := len(pristine) / ds.Dims[0]
		lo, hi := dmg.LeadStart*plane, (dmg.LeadStart+dmg.LeadLen)*plane
		for i, v := range got {
			if i >= lo && i < hi {
				if !math.IsNaN(float64(v)) {
					t.Fatalf("damaged region point %d = %g, want NaN", i, v)
				}
			} else if v != pristine[i] {
				t.Fatalf("intact point %d = %g, want %g", i, v, pristine[i])
			}
		}
	}
}

// TestHostileHeaderBudget crafts valid-looking v3 headers whose declared
// volume the payload cannot plausibly back: the decoder must reject them
// quickly instead of allocating gigabytes.
func TestHostileHeaderBudget(t *testing.T) {
	craft := func(dims []int) []byte {
		h := header{
			eb:     1e-3,
			radius: 512,
			dims:   dims,
			pipe: Pipeline{
				Perm:   []int{0, 1},
				Fusion: grid.Fusion{Groups: []int{1, 1}},
			},
			psections: 1,
		}
		w := blobWriter{h: h}
		w.add(secBins, []byte{1, 2, 3})
		w.add(secLiterals, nil)
		return w.bytes()
	}
	cases := map[string][]int{
		"volume-cap":      {1 << 17, 1<<14 + 1}, // > maxDecodeVolume points
		"points-per-byte": {1 << 13, 1 << 13},   // 67M points, ~70-byte blob
	}
	for name, dims := range cases {
		t.Run(name, func(t *testing.T) {
			blob := craft(dims)
			start := time.Now()
			_, _, err := Decompress(blob, DecompressOptions{})
			if err == nil {
				t.Fatal("hostile header accepted")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			if el := time.Since(start); el > time.Second {
				t.Fatalf("rejection took %v — budget gate not applied before allocation", el)
			}
		})
	}
}
