package ctsim

// MuWater60keV is the linear attenuation coefficient of water at the
// paper's monochromatic 60 keV source energy, in mm⁻¹.
const MuWater60keV = 0.0206

// HUToMu converts a Hounsfield-unit value to a linear attenuation
// coefficient (mm⁻¹): HU = 1000·(μ − μ_water)/μ_water.
func HUToMu(hu float64) float64 {
	mu := MuWater60keV * (1 + hu/1000)
	if mu < 0 {
		return 0 // vacuum can't attenuate negatively
	}
	return mu
}

// MuToHU converts a linear attenuation coefficient (mm⁻¹) back to
// Hounsfield units.
func MuToHU(mu float64) float64 {
	return 1000 * (mu - MuWater60keV) / MuWater60keV
}

// NormalizeHU maps a Hounsfield value into [0, 1] over the window
// [lo, hi], clamping outside values — the paper's pre-network conversion
// "to floating-point data within the data range [0,1]" (§3.1.1).
func NormalizeHU(hu, lo, hi float64) float64 {
	v := (hu - lo) / (hi - lo)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// DenormalizeHU inverts NormalizeHU for values inside the window.
func DenormalizeHU(v, lo, hi float64) float64 {
	return lo + v*(hi-lo)
}

// FullWindowLo and FullWindowHi bound the full clinically relevant
// chest-CT range, in Hounsfield units, used for network normalization.
const (
	FullWindowLo = -1000.0
	FullWindowHi = 1000.0
)
