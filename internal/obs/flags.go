package obs

import (
	"flag"
	"fmt"
	"os"
)

// Sinks are the collaborators the flag block selects. Each is nil when its
// flag is unset (Progress when -quiet is set), and a nil sink is the
// disabled path everywhere it is handed to.
type Sinks struct {
	Obs       *Registry
	Telemetry *Telemetry
	Tracer    *Tracer
	Progress  *Progress
}

// BindFlags declares the observability flag block every CLI shares —
// -metrics, -telemetry, -trace, -trace-ms, -cpuprofile, -memprofile and
// -quiet — on fs, once. Call the returned start after fs is parsed: it
// starts the CPU profile, creates the registry and tracer, attaches the
// stderr progress line and opens the telemetry file.
//
// stop is the command's one exit path, before start or after it, on
// success or failure: it tears down what start made — metrics dump, trace
// file, telemetry close, profiles, in that order — prints err, or else the
// teardown's first error, on stderr as "name: err", and returns the exit
// status, 0 or 1. A failing run is torn down too, because its profile,
// trace and metrics are what someone debugging it needs; so a command ends
// with os.Exit(stop(err)).
func BindFlags(fs *flag.FlagSet, name string) (start func() (Sinks, error), stop func(err error) int) {
	var (
		metrics    = fs.Bool("metrics", false, "dump the metrics registry to stderr when done")
		telemetry  = fs.String("telemetry", "", "append run/cell telemetry as JSONL to this file")
		trace      = fs.String("trace", "", "write a Chrome trace_event JSON of one traced simulation window to this file")
		traceMs    = fs.Float64("trace-ms", 50, "trace window length in simulated milliseconds")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
		quiet      = fs.Bool("quiet", false, "suppress the per-cell progress line on stderr")
	)
	teardown := func() error { return nil }
	start = func() (Sinks, error) {
		var s Sinks
		stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
		if err != nil {
			return s, err
		}
		if *metrics {
			s.Obs = NewRegistry()
		}
		if *trace != "" {
			s.Tracer = NewTracer(int64(*traceMs * 1e6))
		}
		if !*quiet {
			s.Progress = NewProgress(os.Stderr)
		}
		teardown = func() error {
			if s.Obs != nil {
				fmt.Fprintln(os.Stderr, "# metrics")
				s.Obs.Dump(os.Stderr)
			}
			if s.Tracer != nil {
				if err := s.Tracer.WriteFile(*trace); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "trace: %d events -> %s (open in chrome://tracing or ui.perfetto.dev)\n", s.Tracer.Len(), *trace)
			}
			if err := s.Telemetry.Close(); err != nil {
				return err
			}
			return stopProfiles()
		}
		if *telemetry != "" {
			s.Telemetry, err = OpenTelemetry(*telemetry)
		}
		return s, err
	}
	stop = func(err error) int {
		if terr := teardown(); err == nil {
			err = terr
		}
		if err == nil {
			return 0
		}
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		return 1
	}
	return start, stop
}
