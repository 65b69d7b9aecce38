// Package campaign is the batch-execution substrate for the experiment
// layer: a declarative campaign executor. Each experiment registers its
// independent work units ("points"); the engine fans every point of every
// experiment out across one bounded worker pool, memoises identical points
// across experiments by content hash, journals completed points to disk for
// checkpoint/resume at point granularity, and delivers assembled experiment
// results in declaration order.
//
// Determinism is the hard invariant: a point owns all of its mutable state
// and is a pure function of its declared inputs (the content hash), so the
// assembled output of a parallel campaign is byte-identical to a serial one
// — the pool changes wall-clock time, never values. Memoisation and journal
// resume preserve this because the hash covers every input that influences
// the result and float64 values round-trip exactly through the gob journal
// payloads.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Point is one independent unit of work within a task. Run must not share
// mutable state with any other point: everything it mutates it builds
// itself. Hash is a content hash of every input that determines the result;
// points with equal hashes are assumed interchangeable and are computed once
// per campaign (memoisation) and at most once per journal directory
// (resume). An empty Hash opts the point out of both. New allocates a zero
// result for journal decoding; a nil New opts the point out of resume (it
// still memoises within the run).
//
// Run must return the exact pointer type New allocates (*T for some
// gob-encodable T), so a journal-restored result is indistinguishable from
// a freshly computed one. NewPoint enforces this at compile time.
type Point struct {
	Key  string
	Hash string
	New  func() any
	Run  func(ctx context.Context) (any, error)
}

// NewPoint builds a resumable point whose result type is *T: New and Run
// agree by construction, which is what journal restoration requires.
func NewPoint[T any](key, hash string, run func(ctx context.Context) (*T, error)) Point {
	return Point{
		Key:  key,
		Hash: hash,
		New:  func() any { return new(T) },
		Run: func(ctx context.Context) (any, error) {
			v, err := run(ctx)
			if err != nil {
				return nil, err
			}
			return v, nil
		},
	}
}

// Task is one experiment: an ordered set of points plus an Assemble step
// that combines the point results (in declaration order) into the final
// value. Assemble must not mutate the results — memoised values may be
// shared with another task.
type Task struct {
	ID       string
	Points   []Point
	Assemble func(results []any) (any, error)
}

// PointStat records how one point was satisfied.
type PointStat struct {
	Task string `json:"task"`
	Key  string `json:"key"`
	Hash string `json:"hash,omitempty"`
	// Source is how the result was obtained: "run" (computed here),
	// "memo" (deduplicated against an identical point this run),
	// "journal" (restored from a previous run's journal) or "quarantined"
	// (pre-quarantined via Options.Quarantined; never executed).
	Source string  `json:"source"`
	WallMS float64 `json:"wall_ms"`
	// Journaled reports whether the result is persisted in the journal
	// (either restored from it or appended to it by this run).
	Journaled bool `json:"journaled"`
	// JournalErr carries the I/O error that prevented the result from being
	// journaled (full disk, failed fsync). The point still succeeded — it
	// just re-runs on resume — but the lost durability is surfaced instead
	// of hiding behind a bare Journaled=false.
	JournalErr string `json:"journal_err,omitempty"`
	// Attempts is how many times the point's Run was tried (0 for memo- or
	// journal-satisfied points).
	Attempts int `json:"attempts,omitempty"`
	// Quarantined reports that the point failed on its own — a panic or an
	// error that survived every retry — while the campaign stayed alive.
	Quarantined bool   `json:"quarantined,omitempty"`
	Err         string `json:"err,omitempty"`
}

// Outcome is one task's completed execution.
type Outcome struct {
	Task    string
	Index   int
	Value   any   // the assembled result; nil if Err is set
	Err     error // first point error in declaration order, or assemble error
	Elapsed time.Duration
	Points  []PointStat
}

// Options tunes a campaign run.
type Options struct {
	// Workers bounds the point worker pool: 1 executes points serially in
	// declaration order, 0 uses GOMAXPROCS. Results are byte-identical for
	// every setting.
	Workers int
	// Journal, if non-nil, persists completed points and restores matching
	// ones instead of re-running them.
	Journal *Journal
	// OnTask, if non-nil, is called with each task's outcome — failed ones
	// included — strictly in declaration order, as soon as the task and all
	// its predecessors have completed. Check Outcome.Err before using the
	// value; a quarantined point fails only its own task, never the stream.
	OnTask func(Outcome)
	// PointTimeout bounds each point attempt with a context deadline;
	// 0 imposes none. A deadline miss counts as an ordinary point failure,
	// so it is retried and ultimately quarantined, not fatal.
	PointTimeout time.Duration
	// Retry is the per-point retry policy for ordinary point errors. The
	// zero policy runs each point once.
	Retry RetryPolicy
	// StallTimeout arms a watchdog that flags (but never kills) points
	// still running after this long, via the stall metric and OnStall;
	// 0 disables it.
	StallTimeout time.Duration
	// Quarantined pre-quarantines points by content hash: instead of
	// executing a listed point, the engine records it as a quarantined
	// failure carrying the mapped message. A distributed coordinator feeds
	// this with the poison-point markers its fleet accumulated, so the
	// final assembly never re-runs a point that crashed every worker that
	// leased it. A journal record for the hash wins over the listing — a
	// completed value is better evidence than a crash history.
	Quarantined map[string]string
	// OnStall, if non-nil, is called once per flagged point from the
	// watchdog goroutine.
	OnStall func(task, key string, running time.Duration)
}

// Run executes every task's points on a bounded worker pool and returns the
// outcomes in task order. The returned error is the first task error in
// declaration order (a cancelled context surfaces as that task's error);
// outcomes for all tasks are returned even then, so completed work is never
// lost. Point execution order across tasks is unspecified — values are not.
func Run(ctx context.Context, tasks []Task, opts Options) ([]Outcome, error) {
	if err := validate(tasks); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	r := &run{
		ctx:      ctx,
		tasks:    tasks,
		opts:     opts,
		memo:     newMemo(),
		results:  make([][]any, len(tasks)),
		stats:    make([][]PointStat, len(tasks)),
		errs:     make([][]error, len(tasks)),
		pending:  make([]int, len(tasks)),
		started:  make([]time.Time, len(tasks)),
		outcomes: make([]Outcome, len(tasks)),
	}
	if opts.StallTimeout > 0 {
		r.watch = newWatchdog(opts.StallTimeout, opts.OnStall)
		defer r.watch.close()
	}
	total := 0
	for i, t := range tasks {
		r.results[i] = make([]any, len(t.Points))
		r.stats[i] = make([]PointStat, len(t.Points))
		r.errs[i] = make([]error, len(t.Points))
		r.pending[i] = len(t.Points)
		total += len(t.Points)
		if len(t.Points) == 0 {
			// Degenerate but legal: assemble immediately on first touch.
			r.finishTask(i)
		}
	}

	// Flatten (task, point) units in declaration order; workers pull from
	// this queue. With one worker this is exactly the serial loop.
	units := make([][2]int, 0, total)
	for ti, t := range tasks {
		for pi := range t.Points {
			units = append(units, [2]int{ti, pi})
		}
	}
	var next int
	var nextMu sync.Mutex
	take := func() (int, bool) {
		nextMu.Lock()
		defer nextMu.Unlock()
		if next >= len(units) {
			return 0, false
		}
		u := next
		next++
		return u, true
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u, ok := take()
				if !ok {
					return
				}
				ti, pi := units[u][0], units[u][1]
				r.execute(ti, pi)
			}
		}()
	}
	wg.Wait()
	r.deliver() // flush any remaining ordered outcomes

	for i := range r.outcomes {
		if r.outcomes[i].Err != nil {
			return r.outcomes, fmt.Errorf("campaign: %s: %w", r.outcomes[i].Task, r.outcomes[i].Err)
		}
	}
	return r.outcomes, nil
}

// validate rejects campaigns the engine cannot execute unambiguously.
func validate(tasks []Task) error {
	taskIDs := make(map[string]bool, len(tasks))
	keys := make(map[string]string)
	for _, t := range tasks {
		switch {
		case t.ID == "":
			return fmt.Errorf("campaign: task with empty ID")
		case taskIDs[t.ID]:
			return fmt.Errorf("campaign: duplicate task %q", t.ID)
		case t.Assemble == nil:
			return fmt.Errorf("campaign: task %q has no Assemble", t.ID)
		}
		taskIDs[t.ID] = true
		for _, p := range t.Points {
			if p.Key == "" {
				return fmt.Errorf("campaign: task %q has a point with empty key", t.ID)
			}
			if p.Run == nil {
				return fmt.Errorf("campaign: point %q has no Run", p.Key)
			}
			if owner, ok := keys[p.Key]; ok {
				return fmt.Errorf("campaign: point key %q declared by both %q and %q", p.Key, owner, t.ID)
			}
			keys[p.Key] = t.ID
		}
	}
	return nil
}

// run is the mutable state of one campaign execution.
type run struct {
	ctx   context.Context
	tasks []Task
	opts  Options
	memo  *memo

	watch *watchdog

	mu       sync.Mutex
	results  [][]any
	stats    [][]PointStat
	errs     [][]error
	pending  []int
	started  []time.Time
	outcomes []Outcome
	done     []bool
	next     int // next outcome index to deliver in order
}

// execute resolves one point — journal, memo or fresh run — and finishes
// the task when it was the last pending point.
func (r *run) execute(ti, pi int) {
	t := r.tasks[ti]
	p := t.Points[pi]
	r.mu.Lock()
	if r.started[ti].IsZero() {
		r.started[ti] = time.Now()
	}
	r.mu.Unlock()

	stat := PointStat{Task: t.ID, Key: p.Key, Hash: p.Hash}
	var value any
	var err error
	start := time.Now()

	var tracked *inflightPoint
	if r.watch != nil {
		tracked = r.watch.track(t.ID, p.Key)
	}

	switch {
	case r.ctx.Err() != nil:
		err = r.ctx.Err()
	default:
		var restored bool
		if r.opts.Journal != nil && p.Hash != "" && p.New != nil {
			if v, ok, jerr := r.opts.Journal.lookup(p.Hash, p.New); jerr == nil && ok {
				value, restored = v, true
				stat.Source, stat.Journaled = "journal", true
				metPointsJournal.Inc()
				// Seed the memo so an identical point this run shares the
				// restored value instead of hitting the journal decoder again.
				if p.Hash != "" {
					r.memo.seed(p.Hash, v)
				}
			}
		}
		if !restored {
			if msg, poisoned := r.opts.Quarantined[p.Hash]; poisoned && p.Hash != "" {
				err = &quarantineError{cause: errors.New(msg)}
				stat.Source = "quarantined"
			} else if p.Hash != "" {
				var fresh bool
				attempts := 0
				// Panic recovery and retries happen inside runPoint, inside
				// the memo leader's fn: a panicking leader still closes the
				// entry, so followers sharing the hash never deadlock.
				value, err, fresh = r.memo.do(p.Hash, func() (any, error) {
					v, n, rerr := r.runPoint(p)
					attempts = n
					return v, rerr
				})
				if fresh {
					stat.Source = "run"
					stat.Attempts = attempts
					if err == nil && r.opts.Journal != nil {
						var jerr error
						stat.Journaled, jerr = r.opts.Journal.Record(p.Key, p.Hash, value, time.Since(start))
						if jerr != nil {
							stat.JournalErr = jerr.Error()
							metJournalErrors.Inc()
						}
					}
				} else {
					stat.Source = "memo"
					metPointsMemo.Inc()
				}
			} else {
				value, stat.Attempts, err = r.runPoint(p)
				stat.Source = "run"
			}
		}
	}
	if tracked != nil {
		r.watch.untrack(tracked)
	}

	stat.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		stat.Err = err.Error()
		metPointErrors.Inc()
		if errors.Is(err, ErrQuarantined) {
			stat.Quarantined = true
			metPointsQuarantined.Add(1)
		}
	}
	if stat.Source == "run" && err == nil {
		metPointsRun.Inc()
		metPointSeconds.Observe(time.Since(start).Seconds())
	}

	r.mu.Lock()
	r.results[ti][pi] = value
	r.errs[ti][pi] = err
	r.stats[ti][pi] = stat
	r.pending[ti]--
	last := r.pending[ti] == 0
	r.mu.Unlock()
	if last {
		r.finishTask(ti)
	}
}

// finishTask assembles a completed task and delivers any outcomes that are
// now in order.
func (r *run) finishTask(ti int) {
	t := r.tasks[ti]
	out := Outcome{Task: t.ID, Index: ti}

	r.mu.Lock()
	out.Points = append([]PointStat(nil), r.stats[ti]...)
	results := r.results[ti]
	for pi, err := range r.errs[ti] {
		if err != nil {
			out.Err = fmt.Errorf("%s: %w", t.Points[pi].Key, err)
			break
		}
	}
	started := r.started[ti]
	r.mu.Unlock()

	if out.Err == nil {
		v, err := t.Assemble(results)
		if err != nil {
			out.Err = fmt.Errorf("assemble: %w", err)
		} else {
			out.Value = v
		}
	}
	if !started.IsZero() {
		out.Elapsed = time.Since(started)
	}
	metTasksTotal.Inc()
	if out.Err != nil {
		metTaskErrors.Inc()
	}

	r.mu.Lock()
	if r.done == nil {
		r.done = make([]bool, len(r.tasks))
	}
	r.outcomes[ti] = out
	r.done[ti] = true
	r.mu.Unlock()
	r.deliver()
}

// deliver emits consecutive completed outcomes in declaration order, failed
// tasks included — the caller checks Outcome.Err. A quarantined or otherwise
// failed task therefore never withholds its successors' output: a chaos run
// still prints every surviving experiment. Campaign cancellation is the
// exception: once the context is dead, only the already-completed prefix is
// delivered.
func (r *run) deliver() {
	if r.opts.OnTask == nil {
		return
	}
	for {
		r.mu.Lock()
		if r.done == nil || r.next >= len(r.tasks) || !r.done[r.next] {
			r.mu.Unlock()
			return
		}
		out := r.outcomes[r.next]
		stop := out.Err != nil && r.ctx.Err() != nil
		r.next++
		if stop {
			r.next = len(r.tasks)
		}
		r.mu.Unlock()
		if stop {
			return
		}
		r.opts.OnTask(out)
	}
}
