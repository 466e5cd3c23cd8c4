package service

import "testing"

// TestJobEviction bounds the job index in a long-lived server: past
// capacity the oldest finished jobs go first, and a job still queued
// is never evicted.
func TestJobEviction(t *testing.T) {
	s := newJobStore(2)
	queued := s.add(KindRun, "cpu", 0, "", "")
	var ids []string
	for i := 0; i < 4; i++ {
		j := s.add(KindRun, "cpu", 0, "", "")
		if _, ok := j.start(); !ok {
			t.Fatalf("job %s did not start", j.ID())
		}
		j.finish(StatusDone, nil)
		ids = append(ids, j.ID())
	}
	if _, total, _ := s.snapshots("", 0); total != 2 {
		t.Errorf("retained %d jobs, want 2", total)
	}
	if _, ok := s.get(ids[0]); ok {
		t.Error("oldest finished job should be evicted")
	}
	if _, ok := s.get(ids[len(ids)-1]); !ok {
		t.Error("newest job must survive eviction")
	}
	if _, ok := s.get(queued.ID()); !ok {
		t.Error("a queued job must never be evicted")
	}
}
