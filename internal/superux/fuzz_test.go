package superux

import (
	"bytes"
	"testing"
)

// FuzzRestart fuzzes the checkpoint decoder, the one parser of bytes a
// restarted system trusts. Properties pinned for every input: Restart
// never panics, and a checkpoint of any accepted input is a fixed
// point — restarting it and checkpointing again yields the same bytes.
// The seed corpus in testdata/fuzz/FuzzRestart holds a fresh system, a
// faulted system with a complex and a migration, a truncated gob
// stream and garbage.
func FuzzRestart(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Restart(data)
		if err != nil {
			return
		}
		c, err := s.Checkpoint()
		if err != nil {
			t.Fatalf("restarted system does not checkpoint: %v", err)
		}
		r, err := Restart(c)
		if err != nil {
			t.Fatalf("own checkpoint rejected: %v", err)
		}
		again, err := r.Checkpoint()
		if err != nil {
			t.Fatalf("second checkpoint: %v", err)
		}
		if !bytes.Equal(again, c) {
			t.Fatalf("checkpoint is not a fixed point of restart (%d vs %d bytes)", len(again), len(c))
		}
	})
}
