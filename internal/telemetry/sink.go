package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Sink serializes structured events from many goroutines onto one writer:
// Emit marshals the event to a JSON line and hands it to a single drain
// goroutine, so concurrent emitters can never interleave bytes on the
// underlying writer. The channel is bounded but Emit blocks rather than
// drops — event streams are for operators, and a silently truncated stream
// is worse than brief backpressure.
type Sink struct {
	ch   chan []byte
	done chan struct{}

	mu     sync.Mutex
	closed bool
}

// sinkBuffer is the number of marshaled events the drain goroutine may lag
// behind emitters before Emit blocks.
const sinkBuffer = 256

// NewSink starts a sink writing JSON lines (each prefixed with prefix) to
// w. Close it to flush; after Close, Emit is a no-op. A nil Sink is also
// valid: Emit and Close on it are no-ops.
func NewSink(w io.Writer, prefix string) *Sink {
	s := &Sink{ch: make(chan []byte, sinkBuffer), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for line := range s.ch {
			fmt.Fprintf(w, "%s%s\n", prefix, line)
		}
	}()
	return s
}

// Emit marshals v to JSON and queues it for the writer goroutine, blocking
// if the queue is full. Marshal failures and emits after Close are dropped
// silently. No-op on a nil sink.
func (s *Sink) Emit(v any) {
	if s == nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.ch <- b
}

// Close stops the sink after draining every queued event. Safe to call
// more than once; no-op on a nil sink.
func (s *Sink) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.ch)
	s.mu.Unlock()
	<-s.done
}
