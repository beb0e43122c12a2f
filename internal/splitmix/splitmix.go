// Package splitmix is the repository's one SplitMix64 generator: the
// finalizer that derives well-spread seeds and the golden-ratio stream
// that every seeded draw comes from (fault plans, arrival schedules,
// timing jitter, chaos decisions, client backoff). It imports nothing,
// so leaf packages can share it.
package splitmix

// Gamma is the SplitMix64 stream increment, the 64-bit golden ratio.
const Gamma = 0x9e3779b97f4a7c15

// Mix is the SplitMix64 output for state x: x advanced by Gamma, then
// finalized.
func Mix(x uint64) uint64 {
	x += Gamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream is a SplitMix64 draw stream; its value is the stream state.
type Stream uint64

// Next advances the state by Gamma and returns its Mix.
func (s *Stream) Next() uint64 {
	*s += Gamma
	return Mix(uint64(*s))
}

// Uniform returns the next draw as a float64 in [0, 1): its top 53
// bits.
func (s *Stream) Uniform() float64 { return float64(s.Next()>>11) / (1 << 53) }
