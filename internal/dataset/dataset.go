// Package dataset models the climate fields the paper evaluates (Table III):
// a multi-dimensional float32 grid whose trailing two dimensions are the
// horizontal (lat, lon) plane and whose optional leading dimension is time or
// height, plus the CESM-style side information CliZ consumes — the mask map
// and the periodicity hint from the file metadata.
package dataset

import (
	"errors"
	"fmt"
	"math"

	"cliz/internal/grid"
	"cliz/internal/mask"
	"cliz/internal/stats"
)

// LeadKind describes the physical meaning of the leading dimension.
type LeadKind int

const (
	// LeadNone means the dataset is purely horizontal (2D).
	LeadNone LeadKind = iota
	// LeadTime means the leading dimension is time; periodic component
	// extraction may apply (paper §V-C).
	LeadTime
	// LeadHeight means the leading dimension is vertical layers.
	LeadHeight
)

// String implements fmt.Stringer.
func (k LeadKind) String() string {
	switch k {
	case LeadTime:
		return "Time"
	case LeadHeight:
		return "Height"
	}
	return "None"
}

// Dataset is one climate field plus its side information.
type Dataset struct {
	Name string
	// Data is row-major over Dims.
	Data []float32
	// Dims: trailing two dimensions are (lat, lon); leading dimensions are
	// time and/or height — [time, height, lat, lon] for 4D fields like
	// SOILLIQ, [lead, lat, lon] for 3D, or [lat, lon] for 2D.
	Dims []int
	// Lead describes the first dimension (LeadNone for 2D fields).
	Lead LeadKind
	// Periodic marks fields whose metadata flags the time dimension as
	// periodic (e.g. monthly snapshots with an annual cycle).
	Periodic bool
	// Mask is the horizontal mask map, nil if every point is valid.
	Mask *mask.Map
	// FillValue replaces masked points (CESM uses huge sentinels).
	FillValue float32
}

// Points returns the total number of grid points.
func (d *Dataset) Points() int { return grid.Volume(d.Dims) }

// LatLonDims returns the horizontal extents (the trailing two dims).
func (d *Dataset) LatLonDims() (nLat, nLon int) {
	n := len(d.Dims)
	if n < 2 {
		return 1, d.Dims[n-1]
	}
	return d.Dims[n-2], d.Dims[n-1]
}

// Validity returns the broadcast validity bitmap (nil when unmasked or when
// the mask does not fit the dims — Validate reports that case as an error).
func (d *Dataset) Validity() []bool {
	if d.Mask == nil {
		return nil
	}
	v, err := d.Mask.Broadcast(d.Dims)
	if err != nil {
		return nil
	}
	return v
}

// ValidPoints counts the valid points.
func (d *Dataset) ValidPoints() int {
	if d.Mask == nil {
		return d.Points()
	}
	lead := 1
	if len(d.Dims) > 2 {
		for _, x := range d.Dims[:len(d.Dims)-2] {
			lead *= x
		}
	}
	return lead * d.Mask.ValidCount()
}

// ValueRange returns (min, max) over valid points.
func (d *Dataset) ValueRange() (float64, float64) {
	return stats.Range(d.Data, d.Validity())
}

// AbsErrorBound converts a relative error bound (fraction of the valid value
// range, as used throughout the paper's evaluation) into an absolute bound.
func (d *Dataset) AbsErrorBound(rel float64) float64 {
	lo, hi := d.ValueRange()
	r := hi - lo
	if r <= 0 {
		r = 1
	}
	return rel * r
}

// FromFlat completes d with the horizontal mask given as a flat lat·lon
// region slice (nil: every point valid), the form the public API and the
// baselines receive, and validates the result.
func FromFlat(d Dataset, regions []int32) (*Dataset, error) {
	if regions != nil {
		if len(d.Dims) < 2 {
			return nil, errors.New("dataset: mask requires at least 2 dims")
		}
		nLat, nLon := d.Dims[len(d.Dims)-2], d.Dims[len(d.Dims)-1]
		if len(regions) != nLat*nLon {
			return nil, fmt.Errorf("dataset: mask length %d != %d·%d", len(regions), nLat, nLon)
		}
		d.Mask = mask.New(nLat, nLon, regions)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// ResolveBound turns an error budget, exactly one of rel (a fraction of the
// valid value range) and abs positive, into a finite absolute bound.
func (d *Dataset) ResolveBound(rel, abs float64) (float64, error) {
	switch {
	case abs > 0 && rel == 0:
		if math.IsInf(abs, 0) {
			return 0, fmt.Errorf("dataset: non-finite absolute error bound %g", abs)
		}
		return abs, nil
	case rel > 0 && abs == 0:
		lo, hi := d.ValueRange()
		if hi-lo <= 0 {
			// A constant field has no value range to scale against;
			// substituting a range of 1 would turn "0.1% of the range" into
			// an arbitrary absolute budget.
			return 0, fmt.Errorf("dataset: relative bound %g on a field with zero value range [%g, %g]; use Abs for constant fields", rel, lo, hi)
		}
		if r := d.AbsErrorBound(rel); !math.IsInf(r, 0) && !math.IsNaN(r) {
			return r, nil
		}
		// An infinite value range (±Inf at a valid point) would resolve to
		// an unbounded budget and silently destroy the data.
		return 0, fmt.Errorf("dataset: relative bound %g resolves to a non-finite absolute bound (non-finite values at valid points?)", rel)
	}
	return 0, fmt.Errorf("dataset: exactly one of Rel/Abs must be positive, got Rel=%g Abs=%g", rel, abs)
}

// Validate checks internal consistency.
func (d *Dataset) Validate() error {
	if len(d.Dims) < 1 || len(d.Dims) > 4 {
		return fmt.Errorf("dataset %s: unsupported rank %d", d.Name, len(d.Dims))
	}
	if got, want := len(d.Data), grid.Volume(d.Dims); got != want {
		return fmt.Errorf("dataset %s: data %d != volume %d", d.Name, got, want)
	}
	if d.Mask != nil {
		nLat, nLon := d.LatLonDims()
		if d.Mask.NLat != nLat || d.Mask.NLon != nLon {
			return fmt.Errorf("dataset %s: mask %dx%d != grid %dx%d",
				d.Name, d.Mask.NLat, d.Mask.NLon, nLat, nLon)
		}
	}
	if d.Periodic && d.Lead != LeadTime {
		return fmt.Errorf("dataset %s: periodic without a time dimension", d.Name)
	}
	if d.Periodic && d.Mask != nil && len(d.Dims) < 3 {
		// A 2D periodic field is (time, lon); a "horizontal" mask would
		// span the time axis, contradicting its time-invariance.
		return fmt.Errorf("dataset %s: a masked periodic dataset needs a separate time dimension (rank ≥ 3)", d.Name)
	}
	return nil
}

// Clone performs a deep copy (used by experiments that mutate data).
func (d *Dataset) Clone() *Dataset {
	cp := *d
	cp.Data = append([]float32(nil), d.Data...)
	if d.Mask != nil {
		cp.Mask = mask.New(d.Mask.NLat, d.Mask.NLon,
			append([]int32(nil), d.Mask.Regions...))
	}
	cp.Dims = append([]int(nil), d.Dims...)
	return &cp
}
