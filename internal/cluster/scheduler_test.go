package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// holdingWorker is a worker stub whose POST /v1/sweep reply waits
// until the test releases it, then queues job "j1". It records every
// cancel it receives and reports j1 canceled afterwards.
type holdingWorker struct {
	posted  chan struct{}
	release chan struct{}

	mu      sync.Mutex
	deletes []string
}

func (h *holdingWorker) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		close(h.posted)
		<-h.release
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte(`{"job":{"id":"j1","status":"queued"}}`))
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		h.mu.Lock()
		h.deletes = append(h.deletes, r.PathValue("id"))
		h.mu.Unlock()
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"job":{"id":"` + r.PathValue("id") + `","status":"canceled"}}`))
	})
	return mux
}

// TestCancelDuringSubmitReachesWorkerJob cancels the fleet job while a
// shard's submit is still waiting for the worker's reply. The worker
// queues the job anyway, so the coordinator must still learn its ID
// and send the cancel; otherwise the job runs on, orphaned.
func TestCancelDuringSubmitReachesWorkerJob(t *testing.T) {
	h := &holdingWorker{posted: make(chan struct{}), release: make(chan struct{})}
	ts := httptest.NewServer(h.handler())
	defer ts.Close()

	c := New(Options{})
	defer c.Close()
	c.Register(WorkerInfo{ID: "w0", Addr: ts.URL, Targets: []string{"cpu"}, Capacity: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-h.posted
		cancel()
		close(h.release)
	}()
	submit := func(ctx context.Context, addr string, _ int) (JobView, error) {
		return c.client.Submit(ctx, addr, "/v1/sweep", struct{}{})
	}
	outcomes := c.runShards(ctx, 1, "cpu", FleetHooks{}, submit)

	if outcomes[0].stopped == "" {
		t.Errorf("shard outcome %+v, want stopped by the fleet cancel", outcomes[0])
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.deletes) != 1 || h.deletes[0] != "j1" {
		t.Errorf("worker received cancels %v, want exactly [j1]", h.deletes)
	}
}
