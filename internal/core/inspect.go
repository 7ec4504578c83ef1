package core

import (
	"fmt"
	"strings"

	"cliz/internal/grid"
)

// SectionInfo describes one section of a blob.
type SectionInfo struct {
	Name  string
	Bytes int
}

// BlobInfo is the parsed structure of a CliZ blob, for inspection tools.
type BlobInfo struct {
	Kind     string // "unit", "periodic", "chunked"
	Dims     []int
	EB       float64
	Fill     float32
	Pipeline string
	// Version is the blob format version (0 for the chunked container root,
	// whose chunks carry their own versions).
	Version int
	// Checksummed reports a v3 blob whose header and sections carry CRC-32C
	// integrity checksums.
	Checksummed bool
	// IntegrityBytes counts the bytes the v3 section directory and checksums
	// add to this blob (excluding children).
	IntegrityBytes int
	// PSections is the predict-section count from the v2 header (1 for v1
	// blobs and for serial encodes): how many ways the fused leading
	// dimension was cut for parallel prediction/reconstruction.
	PSections int
	Sections  []SectionInfo
	// Children holds the template+residual of periodic blobs or the chunks
	// of a parallel container.
	Children []*BlobInfo
	Total    int
}

// IntegrityTotal sums the integrity overhead of the blob and all children.
func (b *BlobInfo) IntegrityTotal() int {
	n := b.IntegrityBytes
	for _, c := range b.Children {
		n += c.IntegrityTotal()
	}
	return n
}

// Inspect parses a blob's structure without decompressing the payload. It
// is a projection of walk; section checksums are not judged here (Verify
// does that), but a blob whose header or framing is damaged has no
// structure to report and fails.
func Inspect(blob []byte) (*BlobInfo, error) {
	return walk(blob).info()
}

// kind names a walked blob: "chunked", "periodic" or "unit".
func (n *blobNode) kind() string {
	switch {
	case n.chunked:
		return "chunked"
	case n.fault == nil && n.h.flags&flagPeriodic != 0:
		return "periodic"
	}
	return "unit"
}

func (n *blobNode) info() (*BlobInfo, error) {
	if n.fault != nil {
		return nil, n.fault
	}
	if n.chunked {
		info := &BlobInfo{Kind: "chunked", Dims: n.dims, Total: n.size}
		for i, k := range n.kids {
			child, err := k.info()
			if err != nil {
				return nil, fmt.Errorf("chunk %d: %w", i, err)
			}
			child.Kind = fmt.Sprintf("chunk[%d] %s", i, child.Kind)
			info.Children = append(info.Children, child)
		}
		return info, nil
	}
	info := &BlobInfo{
		Kind:           n.kind(),
		Dims:           n.h.dims,
		EB:             n.h.eb,
		Fill:           n.h.fill,
		Pipeline:       n.h.pipe.String(),
		Version:        int(n.h.version),
		Checksummed:    n.h.version >= version3,
		IntegrityBytes: n.h.integrityBytes,
		PSections:      n.h.psections,
		Sections:       []SectionInfo{{"header", n.hdr}},
		Total:          n.end,
	}
	for i, s := range n.sections() {
		if s.payload == nil {
			return nil, s.err
		}
		name := sectionName(s.id)
		info.Sections = append(info.Sections, SectionInfo{name, s.bytes})
		if i < len(n.kids) {
			child, err := n.kids[i].info()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			child.Kind = name
			info.Children = append(info.Children, child)
		}
	}
	return info, nil
}

// Render writes a human-readable tree of the blob structure, with each
// section's share of the blob and its cost in bits per data point.
func (b *BlobInfo) Render(indent string, w *strings.Builder) {
	fmt.Fprintf(w, "%s%s  dims=%v", indent, b.Kind, b.Dims)
	if b.Version > 0 {
		fmt.Fprintf(w, "  v%d", b.Version)
	}
	if b.Checksummed {
		w.WriteString("+crc")
	}
	if b.EB > 0 {
		fmt.Fprintf(w, "  eb=%g", b.EB)
	}
	if b.Pipeline != "" {
		fmt.Fprintf(w, "  [%s]", b.Pipeline)
	}
	if b.PSections > 1 {
		fmt.Fprintf(w, "  psections=%d", b.PSections)
	}
	points := grid.Volume(b.Dims)
	fmt.Fprintf(w, "  %d bytes", b.Total)
	if points > 0 && b.Total > 0 {
		fmt.Fprintf(w, " (%.3f bits/point)", float64(b.Total)*8/float64(points))
	}
	w.WriteByte('\n')
	for _, s := range b.Sections {
		fmt.Fprintf(w, "%s  %-10s %8d bytes", indent, s.Name, s.Bytes)
		if b.Total > 0 {
			fmt.Fprintf(w, " %5.1f%%", 100*float64(s.Bytes)/float64(b.Total))
		}
		w.WriteByte('\n')
	}
	for _, c := range b.Children {
		c.Render(indent+"    ", w)
	}
}

// String implements fmt.Stringer.
func (b *BlobInfo) String() string {
	var sb strings.Builder
	b.Render("", &sb)
	return sb.String()
}
