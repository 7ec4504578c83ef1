package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"cliz/internal/dataset"
	"cliz/internal/grid"
	"cliz/internal/mask"
	"cliz/internal/trace"
)

// Parallel chunked container: the dataset is split along the leading
// dimension into chunks that are compressed and decompressed concurrently —
// the library-level counterpart of the paper's per-core-file setup
// (§VII-C4). Periodic pipelines keep chunk boundaries on whole periods so
// every chunk still amortizes its own template.
//
// Container layout: magic "CLZP" | version | ndims | dims | nchunks |
// per chunk: lead-extent varint + blob-length varint + CliZ blob.
const parMagic = "CLZP"

// CompressChunked compresses ds split along dimension 0 into nChunks pieces
// using `workers` goroutines (0 = GOMAXPROCS). Each chunk is an independent
// CliZ blob, so decompression parallelizes too.
func CompressChunked(ds *dataset.Dataset, eb float64, p Pipeline, opt Options,
	nChunks, workers int) ([]byte, error) {

	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(len(ds.Dims)); err != nil {
		return nil, err
	}
	if nChunks < 1 {
		nChunks = 1
	}
	if nChunks > ds.Dims[0] {
		nChunks = ds.Dims[0]
	}
	bounds := chunkBounds(ds.Dims[0], nChunks, p.Period)
	nChunks = len(bounds) - 1
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	plane := 1
	for _, d := range ds.Dims[1:] {
		plane *= d
	}
	total := trace.Begin(opt.Trace, "chunked-total")
	blobs := make([][]byte, nChunks)
	errs := make([]error, nChunks)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for c := 0; c < nChunks; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			lo, hi := bounds[c], bounds[c+1]
			sub := &dataset.Dataset{
				Name:      fmt.Sprintf("%s#%d", ds.Name, c),
				Data:      ds.Data[lo*plane : hi*plane],
				Dims:      append([]int{hi - lo}, ds.Dims[1:]...),
				Lead:      ds.Lead,
				Periodic:  ds.Periodic,
				Mask:      chunkMask(ds.Mask, len(ds.Dims), lo, hi),
				FillValue: ds.FillValue,
			}
			cp := p
			if cp.Period > 0 && (hi-lo) < 2*cp.Period {
				cp.Period = 0
				cp.Template = nil
			}
			if err := interrupted(opt.Interrupt); err != nil {
				errs[c] = err
				return
			}
			copt := opt
			copt.Trace = trace.Prefixed(opt.Trace, fmt.Sprintf("chunk[%d]", c))
			blobs[c], errs[c] = Compress(sub, eb, cp, copt)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]byte, 0, len(ds.Data)/2)
	out = append(out, parMagic...)
	out = append(out, version1)
	out = appendUvarint(out, uint64(len(ds.Dims)))
	for _, d := range ds.Dims {
		out = appendUvarint(out, uint64(d))
	}
	out = appendUvarint(out, uint64(nChunks))
	for c, blob := range blobs {
		out = appendUvarint(out, uint64(bounds[c+1]-bounds[c]))
		out = appendSection(out, blob)
	}
	total.EndFull(int64(len(ds.Data))*4, int64(len(out)), int64(nChunks), nil)
	return out, nil
}

// chunkMask returns the mask a chunk covering lead rows [lo, hi) should
// carry. For rank ≥ 3 the split axis is outside the horizontal plane, so the
// full mask broadcasts unchanged; for rank ≤ 2 the leading dimension IS part
// of the (lat, lon) plane, so the mask must be sliced along with the data —
// passing it whole fails the sub-dataset's validation (mask h×w != grid).
func chunkMask(m *mask.Map, rank, lo, hi int) *mask.Map {
	switch {
	case m == nil || rank >= 3:
		return m
	case rank == 2:
		return mask.New(hi-lo, m.NLon, m.Regions[lo*m.NLon:hi*m.NLon])
	default: // rank 1: the plane is 1×n and the split runs along it
		return mask.New(1, hi-lo, m.Regions[lo:hi])
	}
}

// chunkBounds splits n into about k pieces; with a period, boundaries snap
// to period multiples (except the final one).
func chunkBounds(n, k, period int) []int {
	bounds := []int{0}
	for c := 1; c < k; c++ {
		b := n * c / k
		if period > 1 {
			b -= b % period
		}
		if b > bounds[len(bounds)-1] {
			bounds = append(bounds, b)
		}
	}
	if bounds[len(bounds)-1] != n {
		bounds = append(bounds, n)
	}
	return bounds
}

// IsChunked reports whether blob is a parallel container.
func IsChunked(blob []byte) bool {
	return len(blob) >= 4 && string(blob[:4]) == parMagic
}

// IsUnit reports whether blob bears the CliZ unit-blob magic. A blob that
// passes IsUnit but fails Decompress is a damaged CliZ blob, not some other
// format — callers sniffing codecs should surface the decode error instead
// of trying the next codec.
func IsUnit(blob []byte) bool {
	return len(blob) >= 4 && string(blob[:4]) == magic
}

// chunkEntry is one parsed record of a chunked container.
type chunkEntry struct {
	lead int // extent along dims[0]
	off  int // start along dims[0]
	blob []byte
}

// parseChunkedContainer validates the container framing and returns the full
// dims plus the chunk table. Resource caps gate the declared volume against
// the container size before any volume-proportional allocation.
func parseChunkedContainer(blob []byte) ([]int, []chunkEntry, error) {
	if !IsChunked(blob) {
		return nil, nil, fmt.Errorf("core: not a chunked container: %w", ErrCorrupt)
	}
	pos := 4
	if pos >= len(blob) || blob[pos] != version1 {
		return nil, nil, ErrCorrupt
	}
	pos++
	nd, err := readUvarint(blob, &pos)
	if err != nil || nd < 1 || nd > 8 {
		return nil, nil, ErrCorrupt
	}
	dims := make([]int, nd)
	vol := 1
	for i := range dims {
		d, err := readUvarint(blob, &pos)
		if err != nil || d == 0 || d > 1<<31 {
			return nil, nil, ErrCorrupt
		}
		dims[i] = int(d)
		if int(d) > (1<<33)/vol {
			return nil, nil, ErrCorrupt
		}
		vol *= int(d)
	}
	if err := checkDecodeBudget(vol, len(blob)-pos); err != nil {
		return nil, nil, err
	}
	nc, err := readUvarint(blob, &pos)
	if err != nil || nc == 0 || nc > uint64(dims[0]) {
		return nil, nil, ErrCorrupt
	}
	chunks := make([]chunkEntry, nc)
	total := 0
	for c := range chunks {
		lead, err := readUvarint(blob, &pos)
		if err != nil || lead == 0 {
			return nil, nil, ErrCorrupt
		}
		sec, err := readSection(blob, &pos)
		if err != nil {
			return nil, nil, err
		}
		chunks[c] = chunkEntry{lead: int(lead), off: total, blob: sec}
		total += int(lead)
	}
	if total != dims[0] {
		return nil, nil, ErrCorrupt
	}
	return dims, chunks, nil
}

// decompressChunked decodes a chunked container on opt.Workers chunk
// goroutines (GOMAXPROCS when <= 0). With partial=false the first chunk
// failure aborts the whole decode; with partial=true damaged chunks are
// reported in the returned ChunkDamage list and their output regions are
// filled with quiet NaN so they cannot be mistaken for data. A partial
// decode in which every chunk is damaged fails with ErrCorrupt and still
// returns the damage list.
func decompressChunked(blob []byte, opt DecompressOptions, partial bool) ([]float32, []int, []ChunkDamage, error) {
	dims, chunks, err := parseChunkedContainer(blob)
	if err != nil {
		return nil, nil, nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	vol := grid.Volume(dims)
	nc := len(chunks)
	plane := vol / dims[0]
	sp := trace.Begin(opt.Trace, "chunked-total")
	out := make([]float32, vol)
	errs := make([]error, nc)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for c := range chunks {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// Chunks already decode concurrently; nested intra-blob
			// parallelism would only oversubscribe the worker budget.
			copt := opt.prefixed(fmt.Sprintf("chunk[%d]", c))
			copt.Workers = 1
			data, cdims, _, err := decompressAt(chunks[c].blob, copt)
			if err != nil {
				errs[c] = err
				return
			}
			// Validate the FULL dims vector: a crafted chunk whose trailing
			// dims disagree with the container (even at equal volume) would
			// otherwise write a transposed/truncated plane into out.
			if len(cdims) != len(dims) || cdims[0] != chunks[c].lead {
				errs[c] = ErrCorrupt
				return
			}
			for i := 1; i < len(dims); i++ {
				if cdims[i] != dims[i] {
					errs[c] = ErrCorrupt
					return
				}
			}
			if len(data) != chunks[c].lead*plane {
				errs[c] = ErrCorrupt
				return
			}
			copy(out[chunks[c].off*plane:(chunks[c].off+chunks[c].lead)*plane], data)
		}(c)
	}
	wg.Wait()
	var damage []ChunkDamage
	nan := float32(math.NaN())
	for c, err := range errs {
		if err == nil {
			continue
		}
		// A requested abort is not chunk damage: even a partial decode must
		// not NaN-fill a region just because the caller's deadline fired.
		if !partial || errors.Is(err, ErrInterrupted) {
			return nil, nil, nil, err
		}
		damage = append(damage, ChunkDamage{
			Index:     c,
			LeadStart: chunks[c].off,
			LeadLen:   chunks[c].lead,
			Err:       err,
		})
		region := out[chunks[c].off*plane : (chunks[c].off+chunks[c].lead)*plane]
		for i := range region {
			region[i] = nan
		}
	}
	if len(damage) == nc {
		return nil, nil, damage, fmt.Errorf("core: all %d chunks undecodable: %w", nc, ErrCorrupt)
	}
	sp.EndFull(int64(len(blob)), int64(vol)*4, int64(nc), nil)
	return out, dims, damage, nil
}
