package cluster

import (
	"context"
	"log/slog"
	"time"

	"mpstream/internal/obs"
)

// JoinOptions configures a worker's join loop.
type JoinOptions struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// Self is the registration the worker advertises.
	Self WorkerInfo
	// RetryEvery paces registration retries while the coordinator is
	// unreachable; <= 0 means 2s.
	RetryEvery time.Duration
	// Logger receives join-loop state transitions (registration
	// failures and heartbeat losses at Warn, successful registration at
	// Info). Nil discards them.
	Logger *slog.Logger
}

// Join runs a worker's membership loop until ctx ends: register with
// the coordinator (retrying while it is unreachable), then heartbeat
// at the coordinator-assigned interval, re-registering whenever the
// coordinator stops recognizing the worker (a coordinator restart
// loses its in-memory registry; workers heal it automatically).
func Join(ctx context.Context, opts JoinOptions) {
	client := NewClient()
	retry := opts.RetryEvery
	if retry <= 0 {
		retry = 2 * time.Second
	}
	log := opts.Logger
	if log == nil {
		log = obs.NopLogger()
	}

	for ctx.Err() == nil {
		resp, err := register(ctx, client, opts.Coordinator, opts.Self)
		if err != nil {
			log.Warn("cluster: register with coordinator failed, retrying",
				"coordinator", opts.Coordinator, "worker", opts.Self.ID,
				"retry_in", retry, "err", err)
			if !sleep(ctx, retry) {
				return
			}
			continue
		}
		interval := time.Duration(resp.HeartbeatMS) * time.Millisecond
		if interval <= 0 {
			interval = DefaultHeartbeatTTL / 3
		}
		log.Info("cluster: registered with coordinator",
			"coordinator", opts.Coordinator, "worker", opts.Self.ID,
			"heartbeat_every", interval)
		for ctx.Err() == nil {
			if !sleep(ctx, interval) {
				return
			}
			hbCtx, cancel := context.WithTimeout(ctx, interval)
			known, err := client.Heartbeat(hbCtx, opts.Coordinator, opts.Self.ID)
			cancel()
			if err != nil || !known {
				log.Warn("cluster: heartbeat lost, re-registering",
					"coordinator", opts.Coordinator, "worker", opts.Self.ID,
					"known", known, "err", err)
				break
			}
		}
	}
}

// register performs one registration attempt under a bounded deadline.
func register(ctx context.Context, client *Client, coord string, self WorkerInfo) (RegisterResponse, error) {
	regCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	return client.Register(regCtx, coord, self)
}

// sleep waits d or until ctx ends; false means ctx ended.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
