package fluid

import (
	"math"
	"math/cmplx"
	"testing"
	"time"

	"pi2/internal/aqm"
)

var std = LoopParams{AlphaHz: 0.3125, BetaHz: 3.125, T: 32 * time.Millisecond, R0: 100 * time.Millisecond}

func TestAQMFactorValues(t *testing.T) {
	kA, zA, sA := std.aqmFactor()
	// κA = α·R0/T = 0.3125·0.1/0.032.
	if want := 0.3125 * 0.1 / 0.032; math.Abs(kA-want) > 1e-12 {
		t.Errorf("kA = %v, want %v", kA, want)
	}
	// zA = α/(T(β+α/2)).
	if want := 0.3125 / (0.032 * (3.125 + 0.15625)); math.Abs(zA-want) > 1e-12 {
		t.Errorf("zA = %v, want %v", zA, want)
	}
	if want := 10.0; math.Abs(sA-want) > 1e-12 {
		t.Errorf("sA = %v, want %v", sA, want)
	}
}

func TestLoopMagnitudeDecreasesFromDC(t *testing.T) {
	// All three loops contain 1/s: |L| must be huge at low ω and tiny at
	// high ω.
	for name, l := range map[string]Loop{
		"renopie": RenoPIE(std, 0.01),
		"renopi2": RenoPI2(std, 0.1),
		"scalpi":  ScalPI(std, 0.1),
	} {
		lo := cmplx.Abs(l(1e-4))
		hi := cmplx.Abs(l(1e4))
		if lo < 100 || hi > 0.01 {
			t.Errorf("%s: |L(1e-4)|=%g |L(1e4)|=%g, want integrator rolloff", name, lo, hi)
		}
	}
}

func TestMarginsFoundForTypicalPoints(t *testing.T) {
	m := ComputeMargins(RenoPI2(std, 0.1))
	if m.Omega180 == 0 || m.OmegaC == 0 {
		t.Fatalf("crossovers not found: %+v", m)
	}
	if m.OmegaC >= m.Omega180 {
		t.Errorf("gain crossover %.3g above phase crossover %.3g for a stable loop", m.OmegaC, m.Omega180)
	}
	if !m.Stable() {
		t.Errorf("reno pi2 at p'=0.1 should be stable: %+v", m)
	}
}

// TestPI2GainMarginFlat reproduces the paper's central analytic claim
// (Section 4, Figure 7): with fixed gains 2.5× PIE's, the PI2 loop's gain
// margin stays positive and roughly flat over the whole load range, only
// exceeding ~10 dB at very high p′.
func TestPI2GainMarginFlat(t *testing.T) {
	var margins []float64
	for _, pp := range []float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 0.6} {
		m := ComputeMargins(RenoPI2(std, pp))
		if m.GainMarginDB <= 0 {
			t.Errorf("p'=%v: gain margin %.2f dB <= 0 (unstable)", pp, m.GainMarginDB)
		}
		margins = append(margins, m.GainMarginDB)
	}
	// Flatness: min and max across the sweep within ~12 dB of each other
	// (the PIE fixed-gain loop spans > 40 dB over the same range).
	lo, hi := margins[0], margins[0]
	for _, g := range margins {
		lo = math.Min(lo, g)
		hi = math.Max(hi, g)
	}
	if hi-lo > 12 {
		t.Errorf("gain margin spread %.1f dB, want flat (< 12 dB)", hi-lo)
	}
	// Only at p' >= 0.6 slightly above 10 dB (the paper's observation).
	m06 := ComputeMargins(RenoPI2(std, 0.6))
	if m06.GainMarginDB < 8 || m06.GainMarginDB > 14 {
		t.Errorf("gain margin at p'=0.6 = %.1f dB, paper says slightly above 10", m06.GainMarginDB)
	}
}

// TestFixedGainPIDivergesAtLowP reproduces Figure 4's diagonal: the plain
// PI loop on p with tune=1 gains is unstable (negative gain margin) at low
// drop probabilities — the very problem PIE's scaling table and PI2's
// squaring both solve.
func TestFixedGainPIDivergesAtLowP(t *testing.T) {
	pie := LoopParams{AlphaHz: 0.125, BetaHz: 1.25, T: 32 * time.Millisecond, R0: 100 * time.Millisecond}
	low := ComputeMargins(RenoPIE(pie, 1e-5))
	if low.GainMarginDB >= 0 {
		t.Errorf("tune=1 at p=1e-5: gain margin %.1f dB, want negative (unstable)", low.GainMarginDB)
	}
	high := ComputeMargins(RenoPIE(pie, 0.05))
	if high.GainMarginDB <= 0 {
		t.Errorf("tune=1 at p=0.05: gain margin %.1f dB, want stable", high.GainMarginDB)
	}
}

// TestAutoTuneStabilizesLowP: with the lookup-table scaling, the PIE loop
// is stable at the same low p where fixed gains were not.
func TestAutoTuneStabilizesLowP(t *testing.T) {
	for _, p := range []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1} {
		mp := Figure4(1) // unused; direct computation below
		_ = mp
		tune := tuneAt(p)
		lp := LoopParams{AlphaHz: 0.125 * tune, BetaHz: 1.25 * tune,
			T: 32 * time.Millisecond, R0: 100 * time.Millisecond}
		m := ComputeMargins(RenoPIE(lp, p))
		if m.GainMarginDB <= 0 {
			t.Errorf("auto-tuned PIE unstable at p=%v: GM %.1f dB", p, m.GainMarginDB)
		}
	}
}

// tuneAt mirrors the production lookup (kept local so this test fails if
// the two tables ever drift apart via Figure5).
func tuneAt(p float64) float64 {
	for _, tp := range Figure5(200) {
		if tp.P >= p {
			return tp.Tune
		}
	}
	return 1
}

// TestScalPIStable: the Scalable-under-PI loop (37) with doubled gains is
// stable across the load range (Figure 7 'scal pi').
func TestScalPIStable(t *testing.T) {
	lp := LoopParams{AlphaHz: 0.625, BetaHz: 6.25, T: 32 * time.Millisecond, R0: 100 * time.Millisecond}
	for _, pp := range []float64{0.001, 0.01, 0.1, 0.5, 1} {
		m := ComputeMargins(ScalPI(lp, pp))
		if m.GainMarginDB <= 0 || m.PhaseMarginDeg <= 0 {
			t.Errorf("scal pi unstable at p'=%v: %+v", pp, m)
		}
	}
}

func TestFigure5TracksSqrtLaw(t *testing.T) {
	for _, tp := range Figure5(60) {
		if tp.P < 1e-6 || tp.P > 0.25 {
			continue // outside the table's designed range
		}
		ratio := tp.Tune / tp.SqrtTwoP
		if ratio < 0.2 || ratio > 5 {
			t.Errorf("p=%.3g: tune %.4g vs sqrt(2p) %.4g (ratio %.2f)", tp.P, tp.Tune, tp.SqrtTwoP, ratio)
		}
	}
}

func TestFigure4Lines(t *testing.T) {
	pts := Figure4(5)
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, mp := range pts {
		for _, line := range []string{"tune=auto", "tune=1", "tune=1/2", "tune=1/8"} {
			if _, ok := mp.ByLine[line]; !ok {
				t.Fatalf("missing line %q", line)
			}
		}
	}
}

func TestFigure7Lines(t *testing.T) {
	pts := Figure7(4)
	for _, mp := range pts {
		for _, line := range []string{"reno pie", "reno pi2", "scal pi"} {
			if _, ok := mp.ByLine[line]; !ok {
				t.Fatalf("missing line %q", line)
			}
		}
		if mp.P < 1e-3-1e-12 || mp.P > 1+1e-12 {
			t.Errorf("p' out of range: %v", mp.P)
		}
	}
}

// TestGainRatioPI2vsPIE verifies the "3.5 times greater gain" arithmetic of
// Section 4: K_PI2/K_PIE = 2.5·√2 ≈ 3.5.
func TestGainRatioPI2vsPIE(t *testing.T) {
	if got := 2.5 * math.Sqrt2; math.Abs(got-3.5355) > 0.001 {
		t.Errorf("2.5*sqrt(2) = %v", got)
	}
	// And the configured gains embody the 2.5× factor exactly.
	if 0.3125/0.125 != 2.5 || 3.125/1.25 != 2.5 {
		t.Error("configured PI2 gains are not 2.5x the PIE base gains")
	}
}

func TestLogspace(t *testing.T) {
	xs := logspace(1e-3, 1, 4)
	if len(xs) != 4 {
		t.Fatal("len")
	}
	if math.Abs(xs[0]-1e-3) > 1e-15 || math.Abs(xs[3]-1) > 1e-12 {
		t.Errorf("endpoints: %v", xs)
	}
	if math.Abs(xs[1]-1e-2) > 1e-12 || math.Abs(xs[2]-1e-1) > 1e-12 {
		t.Errorf("log spacing: %v", xs)
	}
	if got := logspace(5, 10, 1); len(got) != 1 || got[0] != 5 {
		t.Errorf("degenerate logspace: %v", got)
	}
}

func TestBisect(t *testing.T) {
	root := bisect(0, 4, func(x float64) float64 { return x*x - 2 })
	if math.Abs(root-math.Sqrt2) > 1e-9 {
		t.Errorf("bisect sqrt(2) = %v", root)
	}
}

func TestUnwrap(t *testing.T) {
	if got := unwrap(170, -170); got != -190 {
		t.Errorf("unwrap(170, -170) = %v, want -190", got)
	}
	if got := unwrap(-170, 170); got != 190 {
		t.Errorf("unwrap(-170, 170) = %v, want 190", got)
	}
	if got := unwrap(10, 20); got != 10 {
		t.Errorf("unwrap(10, 20) = %v, want 10", got)
	}
}

// TestMaxStableGainScale quantifies the ×2.5 headroom claim: starting from
// the PIE base gains (0.125, 1.25), the squared-output loop must tolerate
// at least a 2.5× scale across the load range, and the direct-p loop must
// not (its diagonal margin kills low-p stability well below that).
func TestMaxStableGainScale(t *testing.T) {
	base := LoopParams{AlphaHz: 0.125, BetaHz: 1.25, T: 32 * time.Millisecond, R0: 100 * time.Millisecond}
	ps := []float64{0.001, 0.01, 0.1, 0.5, 1}
	mPI2 := MaxStableGainScale(base, RenoPI2, ps, 0.5, 32)
	if mPI2 < 2.5 {
		t.Errorf("PI2 max stable gain scale = %.2f, paper claims >= 2.5", mPI2)
	}
	// The same sweep through the direct-p loop (note ps here are p, so
	// the low end reaches the unstable diagonal region).
	pDirect := []float64{1e-5, 1e-4, 1e-3, 0.01, 0.1}
	mPIE := MaxStableGainScale(base, RenoPIE, pDirect, 0.01, 32)
	if mPIE >= 1 {
		t.Errorf("fixed-gain PI on p stable at scale %.2f over the full range; Figure 4 says it must not be", mPIE)
	}
	t.Logf("max stable gain scale: pi2=%.2f direct-p=%.2f", mPI2, mPIE)
}

// TestCrossoversLieOnTheLoop holds the reported crossover frequencies to the
// loop itself, over the operating points of Figures 4 and 7: the gain is 1
// at ωc, and the phase — unwrapped here by an independent dense walk up from
// the sweep's start — is −180° at ω180 (not −540°: it is the first crossing).
func TestCrossoversLieOnTheLoop(t *testing.T) {
	const (
		T  = 32 * time.Millisecond
		R0 = 100 * time.Millisecond
	)
	pie := func(tune func(float64) float64) func(float64) Loop {
		return func(p float64) Loop {
			return RenoPIE(LoopParams{AlphaHz: 0.125 * tune(p), BetaHz: 1.25 * tune(p), T: T, R0: R0}, p)
		}
	}
	fixed := func(x float64) func(float64) float64 { return func(float64) float64 { return x } }
	for _, fam := range []struct {
		name string
		lo   float64
		mk   func(p float64) Loop
	}{
		{"fig4 tune=auto", 1e-6, pie(aqm.AutoTuneFactor)},
		{"fig4 tune=1", 1e-6, pie(fixed(1))},
		{"fig4 tune=1/2", 1e-6, pie(fixed(0.5))},
		{"fig4 tune=1/8", 1e-6, pie(fixed(0.125))},
		{"fig7 reno pie", 1e-3, func(pp float64) Loop { return pie(aqm.AutoTuneFactor)(pp * pp) }},
		{"fig7 reno pi2", 1e-3, func(pp float64) Loop {
			return RenoPI2(LoopParams{AlphaHz: 0.3125, BetaHz: 3.125, T: T, R0: R0}, pp)
		}},
		{"fig7 scal pi", 1e-3, func(pp float64) Loop {
			return ScalPI(LoopParams{AlphaHz: 0.625, BetaHz: 6.25, T: T, R0: R0}, pp)
		}},
	} {
		gain, phase := 0, 0
		for _, p := range logspace(fam.lo, 1, 25) {
			l := fam.mk(p)
			m := ComputeMargins(l)
			if m.OmegaC > 0 {
				gain++
				if mag := cmplx.Abs(l(m.OmegaC)); math.Abs(mag-1) > 1e-9 {
					t.Errorf("%s p=%g: |L(jωc)| = %.12f at ωc=%g, want 1", fam.name, p, mag, m.OmegaC)
				}
			}
			if m.Omega180 > 0 {
				phase++
				ph := phaseDeg(l(1e-4))
				for _, w := range logspace(1e-4, m.Omega180, 20000)[1:] {
					ph = unwrap(phaseDeg(l(w)), ph)
				}
				if math.Abs(ph+180) > 1e-9 {
					t.Errorf("%s p=%g: phase at ω180=%g is %.12f°, want -180", fam.name, p, m.Omega180, ph)
				}
			}
		}
		if gain < 20 || phase < 20 {
			t.Errorf("%s: only %d gain and %d phase crossovers found over 25 points; the check is near-vacuous", fam.name, gain, phase)
		}
	}
}
