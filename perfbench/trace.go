package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public API it drives. Times are nanoseconds since the recorder's epoch;
// Parent 0 marks a root.
type span struct {
	ID     int64          `json:"id"`
	Parent int64          `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until the run ends. The nil *recorder is
// the disabled recorder: every method is a no-op, so untraced rounds pay
// one nil check per call site.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// id reserves a span id, so children can name a parent that has not ended.
func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records a finished span under a reserved id.
func (r *recorder) add(id, parent int64, name string, start, end time.Time, attrs map[string]any) {
	if r == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)), Attrs: attrs}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// all returns a copy of the recorded spans.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.all() {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
