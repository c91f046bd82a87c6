package core

import (
	"errors"
	"fmt"

	"pi2/internal/aqm"
)

// Validate reports whether the configuration is usable before defaults are
// applied: zero values are legal (they select Table 1 defaults); negative
// or out-of-range values are not.
func (c Config) Validate() error {
	var errs []error
	if c.Alpha < 0 || c.Beta < 0 {
		errs = append(errs, fmt.Errorf("gains must be non-negative (alpha=%v beta=%v)", c.Alpha, c.Beta))
	}
	if c.Alpha > 0 && c.Beta > 0 && c.Alpha > c.Beta {
		// Not fatal in theory, but always a configuration mistake in
		// practice: the paper's β is 10x α.
		errs = append(errs, fmt.Errorf("alpha (%v) exceeds beta (%v): gains likely swapped", c.Alpha, c.Beta))
	}
	if c.Target < 0 {
		errs = append(errs, fmt.Errorf("target delay must be non-negative, got %v", c.Target))
	}
	if c.K < 0 {
		errs = append(errs, fmt.Errorf("coupling factor k must be non-negative, got %v", c.K))
	}
	if c.MaxClassicProb < 0 || c.MaxClassicProb > 1 {
		errs = append(errs, fmt.Errorf("max classic probability must be in [0,1], got %v", c.MaxClassicProb))
	}
	return errors.Join(errs...)
}

// Validate checks the dual-queue configuration.
func (c DualConfig) Validate() error {
	var errs []error
	if err := c.Config.Validate(); err != nil {
		errs = append(errs, err)
	}
	if c.LThreshMin < 0 || c.LThreshMax < 0 {
		errs = append(errs, errors.New("L-queue thresholds must be non-negative"))
	}
	if c.LThreshMin != 0 && c.LThreshMax != 0 && c.LThreshMin >= c.LThreshMax {
		errs = append(errs, fmt.Errorf("LThreshMin (%v) must be below LThreshMax (%v)", c.LThreshMin, c.LThreshMax))
	}
	if c.TShift < 0 {
		errs = append(errs, fmt.Errorf("TShift must be non-negative, got %v", c.TShift))
	}
	if c.BufferPackets < 0 {
		errs = append(errs, fmt.Errorf("buffer must be non-negative, got %d", c.BufferPackets))
	}
	return errors.Join(errs...)
}

// String summarizes the effective (post-default) configuration.
func (c Config) String() string {
	c.setDefaults()
	return fmt.Sprintf("pi2{alpha=%g beta=%g target=%v T=%v k=%g maxClassic=%g est=%v}",
		c.Alpha, c.Beta, c.Target, aqm.Tupdate, c.K, c.MaxClassicProb, c.Estimator)
}
