package obs

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// Config bundles the standard observability command-line flags shared by
// the commands (picola, stassign, tables, verify).
type Config struct {
	// Command names the running CLI in ledger records; the commands set
	// it before Start.
	Command        string
	TracePath      string
	TraceFormat    string
	MetricsPath    string
	LedgerPath     string
	HTTPAddr       string
	CPUProfilePath string
	MemProfilePath string
}

// RegisterFlags installs -trace, -traceformat, -metrics, -ledger, -http,
// -cpuprofile and -memprofile on fs. The -http server itself is started
// by the command via obshttp.Start (obs stays free of net/http).
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.TracePath, "trace", "", "write structured trace events to `FILE` (\"-\" for stdout)")
	fs.StringVar(&c.TraceFormat, "traceformat", "jsonl", "trace format: jsonl or text")
	fs.StringVar(&c.MetricsPath, "metrics", "", "write a metrics snapshot JSON to `FILE` at exit (\"-\" for stdout)")
	fs.StringVar(&c.LedgerPath, "ledger", "", "write the per-run ledger record JSON to `FILE` at exit (\"-\" for stdout)")
	fs.StringVar(&c.HTTPAddr, "http", "", "serve the live introspection endpoints (/metrics, /runs, /progress, /healthz, /debug/pprof) on `ADDR` for the duration of the run")
	fs.StringVar(&c.CPUProfilePath, "cpuprofile", "", "write a pprof CPU profile to `FILE`")
	fs.StringVar(&c.MemProfilePath, "memprofile", "", "write a pprof heap profile to `FILE` at exit")
}

// Session is the live observability state of one command run: the tracer
// (nil when -trace was not given), the open files, and the running CPU
// profile. Close flushes and finalizes everything.
type Session struct {
	Tracer  Tracer
	Metrics *Metrics // snapshot source for -metrics; Default if unset
	// Ledger aggregates the run's spans when -ledger or -http is active
	// (it is Tee'd into Tracer); nil otherwise. Close finalizes it into
	// the Recent ring and the -ledger file.
	Ledger *RunLedger

	cfg        Config
	traceFile  *os.File
	traceOwned bool // close traceFile on Close
	flusher    interface{ Flush() error }
	cpuFile    *os.File
}

// Start opens the configured sinks and starts the CPU profile. A zero
// Config yields a fully inert session (nil tracer, Close is cheap).
func (c Config) Start() (*Session, error) {
	s := &Session{Metrics: Default, cfg: c}
	if c.TracePath != "" {
		f, owned, err := openOut(c.TracePath)
		if err != nil {
			return nil, err
		}
		s.traceFile, s.traceOwned = f, owned
		switch c.TraceFormat {
		case "", "jsonl":
			t := NewJSONL(f)
			s.Tracer, s.flusher = t, t
		case "text":
			t := NewText(f)
			s.Tracer, s.flusher = t, t
		default:
			if owned {
				_ = f.Close() // the format error below is the one to report
			}
			return nil, fmt.Errorf("obs: unknown trace format %q (valid: jsonl, text)", c.TraceFormat)
		}
	}
	if c.CPUProfilePath != "" {
		f, err := os.Create(c.CPUProfilePath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close() // the profile-start error is the one to report
			return nil, err
		}
		s.cpuFile = f
	}
	if c.LedgerPath != "" || c.HTTPAddr != "" {
		s.Ledger = NewRunLedger(c.Command, s.Metrics)
		s.Tracer = Tee(s.Ledger, s.Tracer)
	}
	return s, nil
}

// Close stops the CPU profile, flushes the trace sink, finalizes the run
// ledger (into the Recent ring and the -ledger file), and writes the
// heap profile and the metrics snapshot. The trace is flushed before the
// ledger and metrics writers so that when several target stdout ("-")
// the JSONL stream ends before any snapshot object begins. The first
// error wins but every finalizer runs.
func (s *Session) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(s.cpuFile.Close())
		s.cpuFile = nil
	}
	if s.flusher != nil {
		keep(s.flusher.Flush())
		if s.traceOwned {
			keep(s.traceFile.Close())
		}
		s.flusher = nil
	}
	if s.Ledger != nil {
		rec := s.Ledger.Finalize()
		Recent.Add(rec)
		if s.cfg.LedgerPath != "" {
			f, owned, err := openOut(s.cfg.LedgerPath)
			keep(err)
			if err == nil {
				keep(rec.WriteJSON(f))
				if owned {
					keep(f.Close())
				}
			}
		}
		s.Ledger = nil
	}
	if s.cfg.MemProfilePath != "" {
		f, owned, err := openOut(s.cfg.MemProfilePath)
		keep(err)
		if err == nil {
			runtime.GC()
			keep(pprof.WriteHeapProfile(f))
			if owned {
				keep(f.Close())
			}
		}
	}
	if s.cfg.MetricsPath != "" {
		m := s.Metrics
		if m == nil {
			m = Default
		}
		f, owned, err := openOut(s.cfg.MetricsPath)
		keep(err)
		if err == nil {
			keep(m.Snapshot().WriteJSON(f))
			if owned {
				keep(f.Close())
			}
		}
	}
	return first
}

// openOut creates path, mapping "-" to stdout (not owned by the caller).
func openOut(path string) (*os.File, bool, error) {
	if path == "-" {
		return os.Stdout, false, nil
	}
	f, err := os.Create(path)
	return f, err == nil, err
}

// StageSummary writes a human-readable table of every timer in m that
// recorded at least one interval, sorted by name — the -v per-stage
// wall-clock summary of the commands. Timers registered but never
// observed are left out.
func StageSummary(w io.Writer, m *Metrics) {
	s := m.Snapshot()
	bw := bufio.NewWriter(w)
	names := make([]string, 0, len(s.Timers))
	for k, t := range s.Timers {
		if t.Count > 0 {
			names = append(names, k)
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(bw, "no stage timings recorded")
		_ = bw.Flush() // best-effort diagnostic output
		return
	}
	sort.Strings(names)
	fmt.Fprintf(bw, "%-28s %8s %14s %14s\n", "stage", "count", "total", "mean")
	for _, k := range names {
		t := s.Timers[k]
		fmt.Fprintf(bw, "%-28s %8d %14v %14v\n", k, t.Count,
			time.Duration(t.TotalNS).Round(time.Microsecond),
			time.Duration(t.MeanNS).Round(time.Microsecond))
	}
	_ = bw.Flush() // best-effort diagnostic output
}
