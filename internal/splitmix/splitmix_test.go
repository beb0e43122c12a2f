package splitmix

import "testing"

// TestReferenceOutputs pins Mix and Stream to the SplitMix64 reference
// sequence from state 0.
func TestReferenceOutputs(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec}
	if got := Mix(0); got != want[0] {
		t.Fatalf("Mix(0) = %#x, want %#x", got, want[0])
	}
	var s Stream
	for i, w := range want[1:] {
		if got := s.Next(); got != w {
			t.Fatalf("draw %d = %#x, want %#x", i+1, got, w)
		}
	}
}

// TestUniformRange pins Uniform to the top 53 bits of Next, in [0, 1).
func TestUniformRange(t *testing.T) {
	a, b := Stream(7), Stream(7)
	for i := 0; i < 1000; i++ {
		u := a.Uniform()
		if u < 0 || u >= 1 || u != float64(b.Next()>>11)/(1<<53) {
			t.Fatalf("draw %d: Uniform = %v", i, u)
		}
	}
}
