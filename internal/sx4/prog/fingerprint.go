package prog

import "math"

// fpMix folds one 64-bit word into the hash: an xor followed by a
// SplitMix64-style finalizer, so every input bit diffuses across the
// whole state. Word-at-a-time mixing keeps Fingerprint cheap enough to
// compute on every Machine.Run of a source program (RunCompiled reads
// the fingerprint Compile stamped instead).
func fpMix(h, v uint64) uint64 {
	h ^= v
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func fpString(h uint64, s string) uint64 {
	h = fpMix(h, uint64(len(s)))
	var w uint64
	for i := 0; i < len(s); i++ {
		w = w<<8 | uint64(s[i])
		if i%8 == 7 {
			h = fpMix(h, w)
			w = 0
		}
	}
	if len(s)%8 != 0 {
		h = fpMix(h, w)
	}
	return h
}

// Fingerprint returns a 64-bit hash of the complete program structure:
// the name, every phase's parallelism, barrier and serial-clock fields,
// and every op of every loop body. Two programs with the same
// fingerprint execute identically on a given machine, which is what
// lets each machine model cache its compiled form of a trace (the
// compiled-trace cache in packages sx4 and machine).
func (p Program) Fingerprint() uint64 {
	h := uint64(0xcbf29ce484222325)
	h = fpString(h, p.Name)
	h = fpMix(h, uint64(len(p.Phases)))
	for _, ph := range p.Phases {
		h = fpString(h, ph.Name)
		var par uint64
		if ph.Parallel {
			par = 1
		}
		h = fpMix(h, par)
		h = fpMix(h, uint64(ph.Barriers))
		h = fpMix(h, math.Float64bits(ph.SerialClocks))
		h = fpMix(h, uint64(len(ph.Loops)))
		for _, l := range ph.Loops {
			h = fpMix(h, uint64(l.Trips))
			h = fpMix(h, uint64(len(l.Body)))
			for _, op := range l.Body {
				h = fpMix(h, uint64(op.Class))
				h = fpMix(h, uint64(op.VL))
				h = fpMix(h, uint64(int64(op.Stride)))
				h = fpMix(h, uint64(op.Span))
				h = fpMix(h, uint64(op.Intr))
				h = fpMix(h, uint64(op.Count))
				h = fpMix(h, uint64(op.FlopsPerElem))
			}
		}
	}
	return h
}
