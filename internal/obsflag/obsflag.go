// Package obsflag bundles the observability and profiling flags every
// long-running deepheal command offers — -metrics-addr/-metrics-out and
// -cpuprofile/-memprofile — so the flag names, help text and start/finish
// plumbing are defined once instead of per subcommand.
package obsflag

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"deepheal/internal/obs"
)

// Metrics is the -metrics-addr/-metrics-out flag pair.
type Metrics struct {
	// Addr serves live metrics over HTTP when non-empty.
	Addr string
	// Out writes a final JSON metrics snapshot when non-empty.
	Out string
}

// Register installs the flags on fs.
func (m *Metrics) Register(fs *flag.FlagSet) {
	fs.StringVar(&m.Addr, "metrics-addr", "", "serve live metrics over HTTP on this address (e.g. :9090)")
	fs.StringVar(&m.Out, "metrics-out", "", "write a final JSON metrics snapshot to this file")
}

// Enabled reports whether either flag was set — the caller's cue to build a
// registry at all (a nil registry keeps every instrument a no-op).
func (m *Metrics) Enabled() bool { return m.Addr != "" || m.Out != "" }

// Start brings up the optional live endpoint for reg and returns a finish
// function that stops it and writes the -metrics-out snapshot. Call finish
// once the instrumented work is done; it is not further goroutine-safe.
func (m *Metrics) Start(reg *obs.Registry) (finish func() error, err error) {
	var srv *obs.Server
	if m.Addr != "" {
		srv, err = reg.StartServer(m.Addr)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics\n", srv.Addr())
	}
	return func() error {
		if srv != nil {
			srv.Close()
		}
		if m.Out != "" {
			if err := reg.Snapshot().WriteFile(m.Out); err != nil {
				return fmt.Errorf("metrics snapshot: %w", err)
			}
			fmt.Fprintf(os.Stderr, "wrote metrics snapshot to %s\n", m.Out)
		}
		return nil
	}, nil
}

// Profile is the -cpuprofile/-memprofile flag pair. A command Registers it
// and Starts it in-process.
type Profile struct {
	CPU, Mem string
}

// Register installs the flags on fs.
func (p *Profile) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile at the end of the run to this file")
}

// Start begins CPU profiling (if requested) and returns a stop function
// that finishes the CPU profile and writes the heap profile. The stop
// function is safe to call exactly once; profile-file errors are reported
// on stderr rather than failing the run whose work is already done.
func (p *Profile) Start() (stop func(), err error) {
	var cpuFile *os.File
	if p.CPU != "" {
		cpuFile, err = os.Create(p.CPU)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "obsflag: cpuprofile:", err)
			}
		}
		if p.Mem != "" {
			f, err := os.Create(p.Mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "obsflag: memprofile:", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "obsflag: memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "obsflag: memprofile:", err)
			}
		}
	}, nil
}
