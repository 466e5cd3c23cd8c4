package runstate_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"mpstream/internal/runstate"
)

func TestFromErr(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{context.Canceled, runstate.Canceled},
		{context.DeadlineExceeded, runstate.Deadline},
		{fmt.Errorf("wrap: %w", context.Canceled), runstate.Canceled},
		{fmt.Errorf("wrap: %w", context.DeadlineExceeded), runstate.Deadline},
		{errors.New("backend exploded"), ""},
	}
	for _, c := range cases {
		if got := runstate.FromErr(c.err); got != c.want {
			t.Errorf("FromErr(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestFromContext(t *testing.T) {
	if got := runstate.FromContext(context.Background()); got != "" {
		t.Errorf("live context = %q, want empty", got)
	}
	if got := runstate.FromContext(nil); got != "" {
		t.Errorf("nil context = %q, want empty", got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := runstate.FromContext(ctx); got != runstate.Canceled {
		t.Errorf("canceled context = %q, want %q", got, runstate.Canceled)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if got := runstate.FromContext(dctx); got != runstate.Deadline {
		t.Errorf("expired context = %q, want %q", got, runstate.Deadline)
	}
}
