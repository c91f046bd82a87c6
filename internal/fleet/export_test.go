package fleet

import "crypto/sha256"

// Hooks exposes the pool's test-only knobs to the external test package.
type Hooks = hooks

// NewHookedPool is NewPool with the test-only knobs adjusted by set.
func NewHookedPool(cfg Config, set func(*Hooks)) *Pool {
	p := NewPool(cfg)
	set(&p.hooks)
	return p
}

// Raw returns a cell's journaled record bytes, whether or not they decode.
func (rs *ResumeSet) Raw(family string, key []byte, index int) ([]byte, bool) {
	b, ok := rs.segs[segKey(family, sha256.Sum256(key))][index]
	return b, ok
}
