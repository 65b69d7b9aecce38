// Package engine is the reusable simulation substrate underneath the
// system-level Deep Healing scheduler: a bounded worker pool whose sharded
// stepping is bit-identical to a serial loop, a staged per-step pipeline
// with wall-time and progress instrumentation, and a versioned
// whole-system snapshot container for checkpoint/resume. The physical
// models (BTI devices, EM segments, thermal and power grids, sensors) each
// serialise their own state; the container only frames the payloads. The
// engine knows nothing about scheduling policies or the paper's
// experiments.
package engine
