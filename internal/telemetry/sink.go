package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// Sink serializes structured events from many goroutines onto one writer:
// Emit marshals the event to a JSON line and writes it whole, in one Write
// call under the sink's lock, so concurrent emitters can never interleave
// bytes on the underlying writer. Emit blocks while another event is
// being written rather than dropping one — event streams are for
// operators, and a silently truncated stream is worse than brief
// backpressure.
type Sink struct {
	w      io.Writer
	prefix string

	mu     sync.Mutex
	closed bool
}

// NewSink returns a sink writing JSON lines (each prefixed with prefix) to
// w. After Close, Emit is a no-op. A nil Sink is also valid: Emit and
// Close on it are no-ops.
func NewSink(w io.Writer, prefix string) *Sink {
	return &Sink{w: w, prefix: prefix}
}

// Emit marshals v to JSON and writes it as one line. Marshal failures and
// emits after Close are dropped silently. No-op on a nil sink.
func (s *Sink) Emit(v any) {
	if s == nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	line := make([]byte, 0, len(s.prefix)+len(b)+1)
	line = append(append(append(line, s.prefix...), b...), '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.w.Write(line)
}

// Close stops the sink: every Emit that returned before Close has been
// written, and later ones are dropped. Safe to call more than once; no-op
// on a nil sink.
func (s *Sink) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}
