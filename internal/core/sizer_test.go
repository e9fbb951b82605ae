package core_test

import (
	"testing"

	"mad/internal/core"
)

func TestBatchSizerDefaultsAndClamps(t *testing.T) {
	s := core.NewBatchSizer(0, 0, 0)
	if s.Size() != core.DefaultStreamBatch {
		t.Fatalf("default start = %d", s.Size())
	}
	if s := core.NewBatchSizer(1, 0, 0); s.Size() != core.MinStreamBatch {
		t.Fatalf("start below floor not clamped: %d", s.Size())
	}
	if s := core.NewBatchSizer(1<<20, 0, 0); s.Size() != core.MaxStreamBatch {
		t.Fatalf("start above ceiling not clamped: %d", s.Size())
	}
}

func TestBatchSizerShrinksOnBackpressure(t *testing.T) {
	s := core.NewBatchSizer(0, 0, 0)
	start := s.Size()
	s.Observe(true)
	if s.Size() != start/2 {
		t.Fatalf("one blocked emit: %d -> %d, want halved", start, s.Size())
	}
	// Sustained backpressure floors at MinStreamBatch, never zero.
	for i := 0; i < 20; i++ {
		s.Observe(true)
	}
	if s.Size() != core.MinStreamBatch {
		t.Fatalf("sustained backpressure floor = %d", s.Size())
	}
}

func TestBatchSizerGrowsOnStreakOnly(t *testing.T) {
	s := core.NewBatchSizer(core.MinStreamBatch, 0, 0)
	// Three fast emits are not a streak yet.
	for i := 0; i < 3; i++ {
		s.Observe(false)
	}
	if s.Size() != core.MinStreamBatch {
		t.Fatalf("grew before streak completed: %d", s.Size())
	}
	// The fourth completes the streak and doubles the batch.
	s.Observe(false)
	if s.Size() != 2*core.MinStreamBatch {
		t.Fatalf("after streak = %d, want %d", s.Size(), 2*core.MinStreamBatch)
	}
	// A blocked emit resets the streak: three fast, one blocked, three
	// fast again must not grow.
	sz := s.Size()
	for i := 0; i < 3; i++ {
		s.Observe(false)
	}
	s.Observe(true)
	half := s.Size()
	if half != sz/2 {
		t.Fatalf("blocked after partial streak: %d, want %d", half, sz/2)
	}
	for i := 0; i < 3; i++ {
		s.Observe(false)
	}
	if s.Size() != half {
		t.Fatalf("partial streak after reset grew the batch: %d", s.Size())
	}
	// Sustained fast drain ceilings at MaxStreamBatch.
	for i := 0; i < 200; i++ {
		s.Observe(false)
	}
	if s.Size() != core.MaxStreamBatch {
		t.Fatalf("sustained drain ceiling = %d", s.Size())
	}
}

func TestBatchSizerPinned(t *testing.T) {
	// min == max pins the size, whatever the emit outcomes.
	s := core.NewBatchSizer(64, 64, 64)
	for i := 0; i < 50; i++ {
		s.Observe(i%3 == 0)
	}
	if s.Size() != 64 {
		t.Fatalf("pinned sizer moved: %d", s.Size())
	}
}
