package fleet

// Hooks exposes the pool's test-only knobs to the external test package.
type Hooks = hooks

// NewHookedPool is NewPool with the test-only knobs adjusted by set.
func NewHookedPool(cfg Config, set func(*Hooks)) *Pool {
	p := NewPool(cfg)
	set(&p.hooks)
	return p
}
