// Package fluid implements the Appendix B fluid-model stability analysis:
// the Laplace-domain loop transfer functions (35), (36) and (37) for
// TCP Reno under PIE, Reno under PI2, and a Scalable control under plain PI,
// and numeric Bode gain/phase-margin extraction. It regenerates Figures 4,
// 5 and 7 (the paper produced them with Octave scripts).
package fluid

import (
	"math"
	"math/cmplx"
	"time"
)

// LoopParams are the AQM-side parameters common to all three loops.
type LoopParams struct {
	// AlphaHz, BetaHz are the PI gains in Hz (already including any
	// tune scaling for the PIE case).
	AlphaHz, BetaHz float64
	// T is the control update interval.
	T time.Duration
	// R0 is the (maximum) round-trip time being designed for.
	R0 time.Duration
}

// aqmFactor returns κA, zA, sA of equation (31):
// κA = α·R0/T, zA = α/(T·(β+α/2)), sA = 1/R0.
func (lp LoopParams) aqmFactor() (kA, zA, sA float64) {
	t := lp.T.Seconds()
	r0 := lp.R0.Seconds()
	kA = lp.AlphaHz * r0 / t
	zA = lp.AlphaHz / (t * (lp.BetaHz + lp.AlphaHz/2))
	sA = 1 / r0
	return
}

// Loop is a loop transfer function evaluated on the imaginary axis.
type Loop func(omega float64) complex128

// common assembles κX·κA·(s/zA+1)·e^(−sR0) / (D(s)·(s/sA+1)·s) where D is
// the TCP-side denominator.
func (lp LoopParams) common(kX float64, denom func(s complex128) complex128) Loop {
	kA, zA, sA := lp.aqmFactor()
	r0 := lp.R0.Seconds()
	return func(omega float64) complex128 {
		s := complex(0, omega)
		num := complex(kX*kA, 0) * (s/complex(zA, 0) + 1) * cmplx.Exp(-s*complex(r0, 0))
		den := denom(s) * (s/complex(sA, 0) + 1) * s
		return num / den
	}
}

// RenoPIE returns L_renop (35): TCP Reno controlled by a PI law acting
// directly on the drop probability p, at operating point p0.
// κR = 1/(2·p0), s_R = √(2·p0)/R0, D(s) = s/s_R + (1+e^(−sR0))/2.
func RenoPIE(lp LoopParams, p0 float64) Loop {
	r0 := lp.R0.Seconds()
	kR := 1 / (2 * p0)
	sR := math.Sqrt(2*p0) / r0
	return lp.common(kR, func(s complex128) complex128 {
		return s/complex(sR, 0) + (1+cmplx.Exp(-s*complex(r0, 0)))/2
	})
}

// RenoPI2 returns L_renop′² (36): TCP Reno controlled through the squared
// output p = (p′)², at operating point p′0.
// κS = 1/p′0, s_R = √2·p′0/R0 (same denominator shape as (35)).
func RenoPI2(lp LoopParams, pPrime0 float64) Loop {
	r0 := lp.R0.Seconds()
	kS := 1 / pPrime0
	sR := math.Sqrt2 * pPrime0 / r0
	return lp.common(kS, func(s complex128) complex128 {
		return s/complex(sR, 0) + (1+cmplx.Exp(-s*complex(r0, 0)))/2
	})
}

// ScalPI returns L_scalp′ (37): a Scalable control (−½ packet per mark)
// under plain PI marking, at operating point p′0.
// κS = 1/p′0, s_S = p′0/(2·R0), D(s) = s/s_S + e^(−sR0).
func ScalPI(lp LoopParams, pPrime0 float64) Loop {
	r0 := lp.R0.Seconds()
	kS := 1 / pPrime0
	sS := pPrime0 / (2 * r0)
	return lp.common(kS, func(s complex128) complex128 {
		return s/complex(sS, 0) + cmplx.Exp(-s*complex(r0, 0))
	})
}

// Margins holds the Bode stability margins of a loop.
type Margins struct {
	// GainMarginDB is −20·log10|L(jω180)| at the phase-crossover
	// frequency ω180 (first ω where the unwrapped phase reaches −180°).
	GainMarginDB float64
	// PhaseMarginDeg is 180° + ∠L(jωc) at the gain-crossover frequency
	// ωc (first ω where |L| falls through 1).
	PhaseMarginDeg float64
	// Omega180 and OmegaC are the crossover frequencies in rad/s
	// (0 when not found in the search range).
	Omega180, OmegaC float64
}

// Stable reports whether both margins are positive.
func (m Margins) Stable() bool { return m.GainMarginDB > 0 && m.PhaseMarginDeg > 0 }

// ComputeMargins extracts Bode margins by sweeping ω logarithmically over
// [1e-4, 1e5] rad/s with phase unwrapping, then bisecting each crossing.
// Inside a bracket the phase is unwrapped against the sweep's own value at
// the bracket's left edge: one sweep step never turns the phase by 180°.
func ComputeMargins(l Loop) Margins {
	const (
		wMin   = 1e-4
		wMax   = 1e5
		points = 4000
	)
	var m Margins

	// Sweep with unwrapped phase.
	logMin, logMax := math.Log10(wMin), math.Log10(wMax)
	prevW := wMin
	prevVal := l(wMin)
	prevPhase := phaseDeg(prevVal)
	// The loops behave like 1/s² at low frequency: phase starts near
	// −180° from below? No: two integrator-like poles give −180°, but the
	// zero and κ structure keep it above −180° at wMin for stable
	// configurations. Unwrap relative to the first sample.
	foundGM := false
	foundPM := false
	prevMag := cmplx.Abs(prevVal)
	for i := 1; i <= points; i++ {
		w := math.Pow(10, logMin+(logMax-logMin)*float64(i)/points)
		v := l(w)
		ph := unwrap(phaseDeg(v), prevPhase)
		mag := cmplx.Abs(v)

		if !foundPM && prevMag >= 1 && mag < 1 {
			wc := bisect(prevW, w, func(x float64) float64 { return cmplx.Abs(l(x)) - 1 })
			m.OmegaC = wc
			m.PhaseMarginDeg = 180 + unwrap(phaseDeg(l(wc)), prevPhase)
			foundPM = true
		}
		if !foundGM && prevPhase > -180 && ph <= -180 {
			w180 := bisect(prevW, w, func(x float64) float64 {
				return unwrap(phaseDeg(l(x)), prevPhase) + 180
			})
			m.Omega180 = w180
			m.GainMarginDB = -20 * math.Log10(cmplx.Abs(l(w180)))
			foundGM = true
		}
		if foundGM && foundPM {
			break
		}
		prevW, prevPhase, prevMag = w, ph, mag
	}
	return m
}

// phaseDeg returns the principal phase in degrees.
func phaseDeg(v complex128) float64 { return cmplx.Phase(v) * 180 / math.Pi }

// unwrap shifts ph by multiples of 360° to be continuous with prev.
func unwrap(ph, prev float64) float64 {
	for ph-prev > 180 {
		ph -= 360
	}
	for ph-prev < -180 {
		ph += 360
	}
	return ph
}

// bisect finds a zero of f in [a, b] (f must change sign there).
func bisect(a, b float64, f func(float64) float64) float64 {
	fa := f(a)
	for i := 0; i < 80; i++ {
		mid := (a + b) / 2
		fm := f(mid)
		if fm == 0 {
			return mid
		}
		if (fa < 0) == (fm < 0) {
			a, fa = mid, fm
		} else {
			b = mid
		}
	}
	return (a + b) / 2
}

// MaxStableGainScale finds the largest multiplier m (within [lo, hi]) such
// that scaling both PI gains by m keeps the Bode gain and phase margins of
// the given loop family positive at every operating point in ps. It
// quantifies the paper's Section 4 claim that PI2's flat gain margin
// leaves room to raise the gains ×2.5 over PIE's base without instability.
func MaxStableGainScale(base LoopParams, mk func(LoopParams, float64) Loop, ps []float64, lo, hi float64) float64 {
	stable := func(m float64) bool {
		lp := base
		lp.AlphaHz *= m
		lp.BetaHz *= m
		for _, p := range ps {
			if !ComputeMargins(mk(lp, p)).Stable() {
				return false
			}
		}
		return true
	}
	if !stable(lo) {
		return 0
	}
	for i := 0; i < 30; i++ {
		mid := (lo + hi) / 2
		if stable(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
