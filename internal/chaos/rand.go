package chaos

// rng is a SplitMix64 generator: tiny, fast, and — unlike math/rand — fully
// under this package's control, so a plan generated from a seed is
// byte-identical across Go versions and runs.
type rng struct{ state uint64 }

// newRng derives an independent stream from a seed and a salt, so the op
// generator and the event scheduler consume separate sequences (adding an
// op never shifts the event schedule).
func newRng(seed, salt uint64) *rng {
	r := &rng{state: seed ^ (salt * 0x9e3779b97f4a7c15)}
	r.next() // decorrelate nearby seeds
	return r
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// pct reports true p percent of the time.
func (r *rng) pct(p int) bool { return r.intn(100) < p }
