package core

import (
	"fmt"

	"computecovid19/internal/volume"
)

// Monitoring support: the paper's title promises diagnosis *and
// monitoring* — §2 notes ComputeCOVID19+ "can deliver better and more
// timely diagnostic monitoring for progressing COVID-19 patients". This
// file quantifies progression across serial scans of one patient: the
// lesion burden (opacified fraction of the segmented lung) and its
// trend.

// LesionBurden returns the fraction of lung voxels whose density exceeds
// thresholdHU — ground-glass and consolidation raise lung voxels from
// ≈ −800 HU toward −300…0 HU, so a threshold of −500 HU separates
// opacified from aerated lung.
func LesionBurden(v *volume.Volume, lungMask []bool, thresholdHU float64) float64 {
	if len(lungMask) != len(v.Data) {
		panic("core: LesionBurden mask size mismatch")
	}
	lung, opaque := 0, 0
	for i, inLung := range lungMask {
		if !inLung {
			continue
		}
		lung++
		if float64(v.Data[i]) > thresholdHU {
			opaque++
		}
	}
	if lung == 0 {
		return 0
	}
	return float64(opaque) / float64(lung)
}

// DefaultBurdenThresholdHU separates aerated from opacified lung.
const DefaultBurdenThresholdHU = -500.0

// ScanRecord is one timepoint of a monitored patient.
type ScanRecord struct {
	// Day is the acquisition day (relative to first presentation).
	Day int
	// Probability is Classification AI's COVID-positive probability.
	Probability float64
	// Burden is the opacified lung fraction in [0, 1].
	Burden float64
}

// Monitor runs the pipeline over a patient's serial scans and returns
// one record per timepoint.
func (p *Pipeline) Monitor(scans []*volume.Volume, days []int) []ScanRecord {
	if len(scans) != len(days) {
		panic("core: Monitor needs one day per scan")
	}
	records := make([]ScanRecord, len(scans))
	for i, v := range scans {
		r := p.Diagnose(v)
		records[i] = ScanRecord{
			Day:         days[i],
			Probability: r.Probability,
			Burden:      LesionBurden(r.Enhanced, r.LungMask, DefaultBurdenThresholdHU),
		}
	}
	return records
}

// Trend classifies a monitored series by the least-squares slope of the
// lesion burden over time.
type Trend int

// Possible progression trends.
const (
	Stable Trend = iota
	Worsening
	Improving
)

// String names the trend.
func (t Trend) String() string {
	switch t {
	case Worsening:
		return "worsening"
	case Improving:
		return "improving"
	default:
		return "stable"
	}
}

// BurdenTrend fits burden = a + b·day and classifies the slope b against
// a ±0.2 %/day dead zone.
func BurdenTrend(records []ScanRecord) Trend {
	if len(records) < 2 {
		return Stable
	}
	var sx, sy, sxx, sxy float64
	for _, r := range records {
		x, y := float64(r.Day), r.Burden
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	n := float64(len(records))
	den := n*sxx - sx*sx
	if den == 0 {
		return Stable
	}
	slope := (n*sxy - sx*sy) / den
	const deadZone = 0.002 // burden fraction per day
	switch {
	case slope > deadZone:
		return Worsening
	case slope < -deadZone:
		return Improving
	default:
		return Stable
	}
}

// MonitorReport renders a monitored series for clinicians.
func MonitorReport(records []ScanRecord) string {
	out := "day  P(COVID)  lesion burden\n"
	for _, r := range records {
		out += fmt.Sprintf("%3d  %8.3f  %6.1f%%\n", r.Day, r.Probability, r.Burden*100)
	}
	out += fmt.Sprintf("trend: %s\n", BurdenTrend(records))
	return out
}
