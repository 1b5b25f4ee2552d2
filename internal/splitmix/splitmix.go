// Package splitmix holds the SplitMix64 finalizer, the one 64-bit mixing
// hash the functional structures, the versioned store and the serving,
// fleet, chaos and litmus seed derivations share. It imports nothing, so
// any package can use it without an import cycle.
package splitmix

// Mix is the SplitMix64 finalizer: a bijection of uint64 whose every
// output bit depends on every input bit.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
