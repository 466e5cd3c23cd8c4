// Package runstate defines the canonical partial-result states shared
// by every layer of the context-aware execution pipeline. When a
// context cancels a run mid-flight — a client deleted its job, a
// per-job deadline expired, a CLI got Ctrl-C — the layer that stopped
// tags whatever it collected with one of these states, so the service,
// the CLIs and the facades all spell "stopped early" the same way.
package runstate

import (
	"context"
	"errors"
)

// Canonical stop states. The empty string means "ran to completion".
const (
	// Canceled marks work stopped by an explicit cancellation.
	Canceled = "canceled"
	// Deadline marks work stopped by an expired deadline.
	Deadline = "deadline"
)

// FromErr classifies an error chain: Deadline for
// context.DeadlineExceeded, Canceled for context.Canceled, "" for nil
// or anything else (a real failure is not a stop state).
func FromErr(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return Deadline
	case errors.Is(err, context.Canceled):
		return Canceled
	}
	return ""
}

// FromContext classifies why ctx stopped, "" while it is still live.
func FromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	return FromErr(ctx.Err())
}
