package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"deepheal/internal/core"
	"deepheal/internal/engine"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrNotFound means no chip is registered under the given ID.
	ErrNotFound = errors.New("fleet: no such chip")
	// ErrDuplicate means the ID is already registered.
	ErrDuplicate = errors.New("fleet: chip already registered")
	// ErrBusy means a fleet-wide step is already running. StepAll rejects
	// overlap instead of queueing on a mutex: a batch saturates the shared
	// pool, so stacked batches would only build an unbounded convoy of
	// blocked handlers. The HTTP layer maps this to 429 with Retry-After.
	ErrBusy = errors.New("fleet: a fleet-wide step is already in progress")
)

// Options configures a Manager. The zero value is usable: a GOMAXPROCS
// pool, no residency cap, a 10 % delay guardband limit.
type Options struct {
	// Workers bounds the shared stepping pool (<= 0: GOMAXPROCS).
	Workers int
	// MaxResident caps how many chips keep a live simulator; the least
	// recently touched excess is suspended to compact snapshots and
	// rehydrated transparently on next use. 0 means unlimited.
	MaxResident int
}

// chip is one managed instance: its spec, its shared model, and either a
// live simulator or a compact suspended snapshot — never both, never
// neither. mu serialises all state access; the manager never holds its own
// lock while taking a chip's.
type chip struct {
	spec  ChipSpec
	model *core.Model

	mu        sync.Mutex
	sim       *core.Simulator // nil while suspended
	snap      []byte          // compact snapshot while suspended
	status    ChipStatus      // cached, refreshed after every state change
	lastTouch uint64          // manager touch-clock value at last use
	removed   bool
}

// Manager owns a fleet of chips. All methods are safe for concurrent use.
type Manager struct {
	opts     Options
	pool     *engine.Pool
	touch    atomic.Uint64
	stepping atomic.Bool // a StepAll batch holds the shared pool

	readyMu  sync.Mutex
	notReady string // non-empty while not serving; the reason, for /readyz

	mu     sync.RWMutex
	chips  map[string]*chip
	order  []string // registration order, for stable listings and batches
	models map[modelKey]*core.Model
}

// SetNotReady marks the manager temporarily unable to serve — restoring a
// checkpoint, draining for shutdown — with a reason /readyz reports. The
// manager still answers every endpoint (a restore-in-progress fleet is
// partially queryable and that is useful for debugging); readiness is
// advisory, for load balancers and scripts that must not observe a
// half-restored fleet.
func (m *Manager) SetNotReady(reason string) {
	if reason == "" {
		reason = "not ready"
	}
	m.readyMu.Lock()
	m.notReady = reason
	m.readyMu.Unlock()
}

// SetReady marks the manager as serving.
func (m *Manager) SetReady() {
	m.readyMu.Lock()
	m.notReady = ""
	m.readyMu.Unlock()
}

// Ready reports whether the manager is serving, with the reason when not.
func (m *Manager) Ready() (bool, string) {
	m.readyMu.Lock()
	defer m.readyMu.Unlock()
	return m.notReady == "", m.notReady
}

// NewManager builds an empty fleet.
func NewManager(opts Options) *Manager {
	return &Manager{
		opts:   opts,
		pool:   engine.NewPool(opts.Workers),
		chips:  make(map[string]*chip),
		models: make(map[modelKey]*core.Model),
	}
}

// Len reports the number of registered chips.
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.chips)
}

// model returns the shared Model for a key, building it on first use.
func (m *Manager) model(spec ChipSpec) (*core.Model, error) {
	key := spec.modelKey()
	m.mu.Lock()
	defer m.mu.Unlock()
	if mod, ok := m.models[key]; ok {
		return mod, nil
	}
	cfg, err := spec.config()
	if err != nil {
		return nil, err
	}
	mod, err := core.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	m.models[key] = mod
	return mod, nil
}

// buildSim instantiates per-chip state over the shared model. Fleet
// simulators run their stages serially (the across-chip batch in StepAll is
// where the shared pool parallelises) and keep only the latest step stats.
func (m *Manager) buildSim(spec ChipSpec, model *core.Model) (*core.Simulator, error) {
	policy, err := core.NewPolicy(spec.Policy)
	if err != nil {
		return nil, err
	}
	return model.NewSimulatorSeeded(policy, spec.Seed,
		core.WithWorkers(1), core.WithLeanSeries())
}

// Register adds a chip to the fleet and returns its initial status.
func (m *Manager) Register(spec ChipSpec) (ChipStatus, error) {
	if err := spec.normalize(); err != nil {
		return ChipStatus{}, err
	}
	model, err := m.model(spec)
	if err != nil {
		return ChipStatus{}, err
	}
	sim, err := m.buildSim(spec, model)
	if err != nil {
		return ChipStatus{}, err
	}
	c := &chip{spec: spec, model: model, sim: sim, lastTouch: m.touch.Add(1)}
	c.status = m.statusOf(c)

	m.mu.Lock()
	if _, ok := m.chips[spec.ID]; ok {
		m.mu.Unlock()
		return ChipStatus{}, fmt.Errorf("%w: %q", ErrDuplicate, spec.ID)
	}
	m.chips[spec.ID] = c
	m.order = append(m.order, spec.ID)
	metChips.Set(float64(len(m.chips)))
	m.mu.Unlock()

	metRegistered.Inc()
	metResident.Add(1)
	m.enforceBudget()
	// The chip is published: a concurrent budget pass may be suspending it.
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.status, nil
}

// Unregister removes a chip and frees its simulator.
func (m *Manager) Unregister(id string) error {
	m.mu.Lock()
	c, ok := m.chips[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	delete(m.chips, id)
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	metChips.Set(float64(len(m.chips)))
	m.mu.Unlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	c.removed = true
	if c.sim != nil {
		c.sim = nil
		metResident.Add(-1)
	}
	if c.snap != nil {
		metSnapBytes.Add(-float64(len(c.snap)))
		c.snap = nil
	}
	return nil
}

// get looks up a chip by ID.
func (m *Manager) get(id string) (*chip, error) {
	m.mu.RLock()
	c, ok := m.chips[id]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return c, nil
}

// Status returns the chip's last known status without stepping it.
func (m *Manager) Status(id string) (ChipStatus, error) {
	c, err := m.get(id)
	if err != nil {
		return ChipStatus{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.status, nil
}

// List returns every chip's status in registration order.
func (m *Manager) List() []ChipStatus {
	m.mu.RLock()
	chips := make([]*chip, 0, len(m.order))
	for _, id := range m.order {
		chips = append(chips, m.chips[id])
	}
	m.mu.RUnlock()
	out := make([]ChipStatus, len(chips))
	for i, c := range chips {
		c.mu.Lock()
		out[i] = c.status
		c.mu.Unlock()
	}
	return out
}

// Step advances one chip by n steps (clamped to its horizon), rehydrating
// it first if it was suspended.
func (m *Manager) Step(ctx context.Context, id string, n int) (ChipStatus, error) {
	c, err := m.get(id)
	if err != nil {
		return ChipStatus{}, err
	}
	st, err := m.stepChip(ctx, c, n)
	if err != nil {
		return ChipStatus{}, err
	}
	m.enforceBudget()
	return st, nil
}

// StepAll advances every chip by n steps as one batch over the shared
// worker pool and returns the new statuses in registration order. Chips
// removed mid-batch report their last status. The first error (in
// registration order) wins, matching the pool's error-first Map semantics.
// Only one batch runs at a time: a call that overlaps an in-flight batch
// returns ErrBusy immediately rather than queueing (single-chip Step calls
// are unaffected and interleave freely).
func (m *Manager) StepAll(ctx context.Context, n int) ([]ChipStatus, error) {
	if !m.stepping.CompareAndSwap(false, true) {
		return nil, ErrBusy
	}
	defer m.stepping.Store(false)
	m.mu.RLock()
	chips := make([]*chip, 0, len(m.order))
	for _, id := range m.order {
		chips = append(chips, m.chips[id])
	}
	m.mu.RUnlock()

	start := time.Now()
	statuses := make([]ChipStatus, len(chips))
	err := m.pool.Map(len(chips), func(i int) error {
		st, err := m.stepChip(ctx, chips[i], n)
		statuses[i] = st
		return err
	})
	metBatchSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		return nil, err
	}
	m.enforceBudget()
	return statuses, nil
}

// stepChip advances one chip under its own lock.
func (m *Manager) stepChip(ctx context.Context, c *chip, n int) (ChipStatus, error) {
	if n <= 0 {
		return ChipStatus{}, fmt.Errorf("fleet: step count %d must be positive", n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.removed {
		return c.status, nil
	}
	if err := m.rehydrateLocked(c); err != nil {
		return ChipStatus{}, err
	}
	before := c.sim.Step()
	if err := c.sim.RunSteps(ctx, n); err != nil {
		return ChipStatus{}, fmt.Errorf("fleet: step chip %q: %w", c.spec.ID, err)
	}
	metSteps.Add(uint64(c.sim.Step() - before))
	c.status = m.statusOf(c)
	c.lastTouch = m.touch.Add(1)
	return c.status, nil
}

// rehydrateLocked rebuilds a suspended chip's simulator from its compact
// snapshot. Caller holds c.mu.
func (m *Manager) rehydrateLocked(c *chip) error {
	if c.sim != nil {
		return nil
	}
	sim, err := m.buildSim(c.spec, c.model)
	if err != nil {
		return err
	}
	if err := sim.Restore(c.snap); err != nil {
		return fmt.Errorf("fleet: rehydrate chip %q: %w", c.spec.ID, err)
	}
	metSnapBytes.Add(-float64(len(c.snap)))
	c.sim, c.snap = sim, nil
	metRehydrates.Inc()
	metResident.Add(1)
	return nil
}

// suspendLocked checkpoints a resident chip to its compact snapshot and
// drops the simulator. Caller holds c.mu.
func (m *Manager) suspendLocked(c *chip) error {
	if c.sim == nil {
		return nil
	}
	blob, err := c.sim.Snapshot()
	if err != nil {
		return fmt.Errorf("fleet: suspend chip %q: %w", c.spec.ID, err)
	}
	c.sim, c.snap = nil, blob
	c.status.Suspended = true
	metSuspends.Inc()
	metResident.Add(-1)
	metSnapBytes.Add(float64(len(blob)))
	return nil
}

// enforceBudget suspends least-recently-touched chips until the resident
// count is back under Options.MaxResident. The suspensions run over the
// shared pool; each task locks one chip and never m.mu, so a chip touched
// between the scan and the suspend may be suspended fresh — it will
// transparently rehydrate on next use.
func (m *Manager) enforceBudget() {
	if m.opts.MaxResident <= 0 {
		return
	}
	m.mu.RLock()
	chips := make([]*chip, 0, len(m.chips))
	for _, c := range m.chips {
		chips = append(chips, c)
	}
	m.mu.RUnlock()

	type resident struct {
		c     *chip
		touch uint64
	}
	live := make([]resident, 0, len(chips))
	for _, c := range chips {
		c.mu.Lock()
		if c.sim != nil && !c.removed {
			live = append(live, resident{c, c.lastTouch})
		}
		c.mu.Unlock()
	}
	excess := len(live) - m.opts.MaxResident
	if excess <= 0 {
		return
	}
	sort.Slice(live, func(i, j int) bool { return live[i].touch < live[j].touch })
	_ = m.pool.Map(excess, func(i int) error {
		c := live[i].c
		c.mu.Lock()
		defer c.mu.Unlock()
		// Re-check: the chip may have been stepped or removed since the scan.
		if c.sim != nil && !c.removed {
			return m.suspendLocked(c) // best-effort; chip stays resident on error
		}
		return nil
	})
}

// UpdateWorkload swaps a chip's workload profile mid-life. The wearout
// state carries over: the chip is checkpointed, rebuilt over the model for
// the new spec and restored — the core checkpoint format is workload-
// agnostic, so the restored chip continues from the same physical state
// under the new demand.
func (m *Manager) UpdateWorkload(id string, w WorkloadSpec) (ChipStatus, error) {
	if _, err := w.profile(); err != nil {
		return ChipStatus{}, err
	}
	c, err := m.get(id)
	if err != nil {
		return ChipStatus{}, err
	}
	newSpec := ChipSpec{}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.removed {
		return ChipStatus{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	newSpec = c.spec
	newSpec.Workload = w
	model, err := m.model(newSpec)
	if err != nil {
		return ChipStatus{}, err
	}
	blob := c.snap
	if c.sim != nil {
		if blob, err = c.sim.Snapshot(); err != nil {
			return ChipStatus{}, err
		}
	}
	sim, err := m.buildSim(newSpec, model)
	if err != nil {
		return ChipStatus{}, err
	}
	if err := sim.Restore(blob); err != nil {
		return ChipStatus{}, fmt.Errorf("fleet: update workload of %q: %w", id, err)
	}
	if c.sim == nil {
		metSnapBytes.Add(-float64(len(c.snap)))
		metRehydrates.Inc()
		metResident.Add(1)
	}
	c.sim, c.snap = sim, nil
	c.spec, c.model = newSpec, model
	c.status = m.statusOf(c)
	c.lastTouch = m.touch.Add(1)
	return c.status, nil
}

// Close frees every chip's simulator. The manager is unusable afterwards.
func (m *Manager) Close() {
	m.mu.Lock()
	chips := m.chips
	m.chips = make(map[string]*chip)
	m.order = nil
	m.mu.Unlock()
	for _, c := range chips {
		c.mu.Lock()
		c.removed = true
		c.sim, c.snap = nil, nil
		c.mu.Unlock()
	}
}

// fleetMeta is the manager-level entry inside a fleet checkpoint.
type fleetMeta struct {
	Version int      `json:"version"`
	IDs     []string `json:"ids"`
}

// Checkpoint component names. Chip entries are namespaced by ID.
const (
	snapMeta = "fleet/meta"

	fleetCheckpointVersion = 1
)

func snapChipSpec(id string) string   { return "fleet/chip/" + id + "/spec" }
func snapChipState(id string) string  { return "fleet/chip/" + id + "/state" }
func snapChipStatus(id string) string { return "fleet/chip/" + id + "/status" }

// Checkpoint serialises the whole fleet — every chip's spec, compact
// wearout state and last status — into one compact engine container.
// Suspended chips contribute their stored snapshot without rehydrating.
func (m *Manager) Checkpoint() ([]byte, error) {
	m.mu.RLock()
	order := append([]string(nil), m.order...)
	chips := make([]*chip, len(order))
	for i, id := range order {
		chips[i] = m.chips[id]
	}
	m.mu.RUnlock()

	snap := engine.NewSystemSnapshot(0)
	meta, err := json.Marshal(fleetMeta{Version: fleetCheckpointVersion, IDs: order})
	if err != nil {
		return nil, err
	}
	if err := snap.AddBytes(snapMeta, meta); err != nil {
		return nil, err
	}
	for i, c := range chips {
		c.mu.Lock()
		spec, state, status := c.spec, c.snap, c.status
		if c.sim != nil {
			state, err = c.sim.Snapshot()
		}
		c.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("fleet: checkpoint chip %q: %w", order[i], err)
		}
		specJSON, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		statusJSON, err := json.Marshal(status)
		if err != nil {
			return nil, err
		}
		id := order[i]
		for _, entry := range []struct {
			name string
			data []byte
		}{{snapChipSpec(id), specJSON}, {snapChipState(id), state}, {snapChipStatus(id), statusJSON}} {
			if err := snap.AddBytes(entry.name, entry.data); err != nil {
				return nil, err
			}
		}
	}
	return snap.Encode()
}

// Restore loads a Checkpoint into an empty manager and rehydrates every
// chip, so queries after a restart answer exactly as they did before the
// checkpoint. The residency budget is re-applied afterwards.
func (m *Manager) Restore(data []byte) error {
	if m.Len() != 0 {
		return errors.New("fleet: restore needs an empty manager")
	}
	snap, err := engine.DecodeSystemSnapshot(data)
	if err != nil {
		return err
	}
	metaJSON, err := snap.Bytes(snapMeta)
	if err != nil {
		return err
	}
	var meta fleetMeta
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return fmt.Errorf("fleet: restore meta: %w", err)
	}
	if meta.Version != fleetCheckpointVersion {
		return fmt.Errorf("fleet: checkpoint version %d, this build reads %d", meta.Version, fleetCheckpointVersion)
	}
	seen := make(map[string]bool, len(meta.IDs))
	for _, id := range meta.IDs {
		if seen[id] {
			return fmt.Errorf("fleet: checkpoint lists chip %q twice", id)
		}
		seen[id] = true
	}
	for _, id := range meta.IDs {
		specJSON, err := snap.Bytes(snapChipSpec(id))
		if err != nil {
			return err
		}
		var spec ChipSpec
		if err := json.Unmarshal(specJSON, &spec); err != nil {
			return fmt.Errorf("fleet: restore chip %q spec: %w", id, err)
		}
		if spec.ID != id {
			return fmt.Errorf("fleet: checkpoint entry %q carries spec for %q", id, spec.ID)
		}
		if err := spec.normalize(); err != nil {
			return err
		}
		state, err := snap.Bytes(snapChipState(id))
		if err != nil {
			return err
		}
		statusJSON, err := snap.Bytes(snapChipStatus(id))
		if err != nil {
			return err
		}
		var saved ChipStatus
		if err := json.Unmarshal(statusJSON, &saved); err != nil {
			return fmt.Errorf("fleet: restore chip %q status: %w", id, err)
		}

		model, err := m.model(spec)
		if err != nil {
			return err
		}
		sim, err := m.buildSim(spec, model)
		if err != nil {
			return err
		}
		if err := sim.Restore(state); err != nil {
			return fmt.Errorf("fleet: restore chip %q: %w", id, err)
		}
		c := &chip{spec: spec, model: model, sim: sim, lastTouch: m.touch.Add(1)}
		c.status = m.statusOf(c)
		if rebuilt, want := c.status, saved; !statusEqual(rebuilt, want) {
			return fmt.Errorf("fleet: restored chip %q reports %+v, checkpoint recorded %+v", id, rebuilt, want)
		}
		m.mu.Lock()
		m.chips[id] = c
		m.order = append(m.order, id)
		metChips.Set(float64(len(m.chips)))
		m.mu.Unlock()
		metResident.Add(1)
	}
	m.enforceBudget()
	return nil
}

// statusEqual compares two statuses ignoring the residency flag (a restored
// chip may be suspended again by the budget, but its physics must match).
func statusEqual(a, b ChipStatus) bool {
	a.Suspended, b.Suspended = false, false
	aj, errA := json.Marshal(a)
	bj, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(aj, bj)
}
