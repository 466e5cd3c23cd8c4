package service

import (
	"sync"
	"time"

	"mpstream/internal/cluster"
	"mpstream/internal/progress"
)

// Event types, in the order a subscriber typically sees them.
const (
	// EventState marks a lifecycle transition (queued → running).
	EventState = "state"
	// EventPoint reports one finished evaluation unit: a sweep grid
	// point, an optimizer evaluation, or a surface ladder rung.
	EventPoint = "point"
	// EventProgress carries a progress snapshot; one follows every
	// point event.
	EventProgress = "progress"
	// EventShard reports a fleet job's shard scheduling: assignment to a
	// worker, completion, a failed attempt about to retry elsewhere, or
	// a shard lost after its attempts ran out.
	EventShard = "shard"
	// EventResult is the terminal event: the job's final view, including
	// its payload. It is always the last event of a stream.
	EventResult = "result"
)

// Event is one NDJSON record of GET /v1/jobs/{id}/events.
type Event struct {
	// Seq numbers events per job, starting at 1; gaps mean the bounded
	// history (or a slow subscriber's buffer) dropped records.
	Seq  uint64    `json:"seq"`
	Job  string    `json:"job"`
	Time time.Time `json:"time"`
	Type string    `json:"type"`
	// Trace is the job's trace ID, stamped on every event so a
	// subscriber can correlate streams across the fleet.
	Trace string `json:"trace,omitempty"`
	// State rides on state and result events.
	State Status `json:"state,omitempty"`
	// Progress rides on progress events.
	Progress *progress.Snapshot `json:"progress,omitempty"`
	// Point rides on point events.
	Point *PointEvent `json:"point,omitempty"`
	// Shard rides on shard events (fleet jobs only).
	Shard *ShardEvent `json:"shard,omitempty"`
	// Result is the final job view, on result events only.
	Result *View `json:"result,omitempty"`
}

// ShardEvent is the fleet scheduling payload of a shard event; the
// wire shape is owned by the cluster layer.
type ShardEvent = cluster.ShardUpdate

// PointEvent is the per-evaluation-unit payload of a point event; the
// wire shape is owned by the cluster layer.
type PointEvent = cluster.PointEvent

const (
	// maxEventHistory bounds the per-job replay log; a subscriber
	// arriving later than that sees a Seq gap, not unbounded memory.
	maxEventHistory = 1024
	// subscriberBuffer bounds one live subscriber's channel. The stream
	// is telemetry: a subscriber that cannot keep up loses intermediate
	// events (visible as Seq gaps) but always gets the terminal result,
	// which the handler reads from the job itself.
	subscriberBuffer = 256
)

// eventLog is the per-job bounded publish/subscribe log. The zero value
// is ready to use once job is set.
type eventLog struct {
	mu      sync.Mutex
	job     string
	trace   string
	seq     uint64
	history []Event
	subs    map[chan Event]struct{}
}

// publish stamps and fans an event out: appended to the bounded history
// (for replay to late subscribers) and offered non-blocking to every
// live subscriber.
func (j *Job) publish(ev Event) {
	l := &j.events
	l.mu.Lock()
	l.seq++
	ev.Seq = l.seq
	ev.Job = l.job
	ev.Trace = l.trace
	ev.Time = time.Now().UTC()
	l.history = append(l.history, ev)
	if len(l.history) > maxEventHistory {
		l.history = l.history[len(l.history)-maxEventHistory:]
	}
	for ch := range l.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop, the Seq gap tells the story
		}
	}
	l.mu.Unlock()
}

// Subscribe attaches a live event subscriber and returns the replayed
// history alongside it. The backlog copy and the registration happen
// atomically, so no event is lost between them. Always pair with
// Unsubscribe.
func (j *Job) Subscribe() (backlog []Event, ch <-chan Event) {
	l := &j.events
	c := make(chan Event, subscriberBuffer)
	l.mu.Lock()
	backlog = append([]Event(nil), l.history...)
	if l.subs == nil {
		l.subs = make(map[chan Event]struct{})
	}
	l.subs[c] = struct{}{}
	l.mu.Unlock()
	return backlog, c
}

// Unsubscribe detaches a Subscribe channel.
func (j *Job) Unsubscribe(ch <-chan Event) {
	l := &j.events
	l.mu.Lock()
	for c := range l.subs {
		if c == ch {
			delete(l.subs, c)
			break
		}
	}
	l.mu.Unlock()
}

// publishPoint counts one completed evaluation unit on the job's
// progress tracker, then emits its point event and the progress
// snapshot that follows it.
func (j *Job) publishPoint(p PointEvent) {
	j.prog.Step(1)
	j.prog.Observe(p.GBps)
	j.publish(Event{Type: EventPoint, Point: &p})
	ps := j.prog.Snapshot()
	j.publish(Event{Type: EventProgress, Progress: &ps})
}

// publishShard emits a fleet job's shard scheduling update, followed
// by a progress snapshot when the update rewound already-counted
// points (a retry re-runs them).
func (j *Job) publishShard(u ShardEvent) {
	j.publish(Event{Type: EventShard, Shard: &u})
	if u.RewindPoints > 0 {
		ps := j.prog.Snapshot()
		j.publish(Event{Type: EventProgress, Progress: &ps})
	}
}
