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
// starts the CPU profile, creates the registry and tracer, opens the
// telemetry file and attaches the stderr progress line. The stop it returns
// tears all of that down when the work is done — metrics dump, trace file,
// telemetry close, profiles, in that order — and returns the first error;
// with no flag set it does nothing.
func BindFlags(fs *flag.FlagSet) (start func() (Sinks, func() error, error)) {
	var (
		metrics    = fs.Bool("metrics", false, "dump the metrics registry to stderr when done")
		telemetry  = fs.String("telemetry", "", "append run/cell telemetry as JSONL to this file")
		trace      = fs.String("trace", "", "write a Chrome trace_event JSON of one traced simulation window to this file")
		traceMs    = fs.Float64("trace-ms", 50, "trace window length in simulated milliseconds")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
		quiet      = fs.Bool("quiet", false, "suppress the per-cell progress line on stderr")
	)
	return func() (Sinks, func() error, error) {
		var s Sinks
		stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
		if err != nil {
			return s, nil, err
		}
		if *metrics {
			s.Obs = NewRegistry()
		}
		if *telemetry != "" {
			if s.Telemetry, err = OpenTelemetry(*telemetry); err != nil {
				return s, nil, err
			}
		}
		if *trace != "" {
			s.Tracer = NewTracer(int64(*traceMs * 1e6))
		}
		if !*quiet {
			s.Progress = NewProgress(os.Stderr)
		}
		return s, func() error {
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
		}, nil
	}
}
