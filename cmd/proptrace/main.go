// Command proptrace runs one audited PROP session end to end
// (internal/audit.RunSession: a transit-stub preset, peers on random stub
// hosts, a Gnutella overlay, PROP on a simulated clock) and prints every
// executed peer-exchange, followed by a before/after summary and the
// invariant audit — the quickest way to watch the protocol work.
//
// Usage:
//
//	proptrace [session flags] [-quiet]
//	    prints the session for a human; -quiet drops the per-exchange lines.
//
//	proptrace record [session flags] [-out trace.jsonl]
//	    streams every protocol event of the session to a replayable JSONL
//	    trace instead.
//
//	proptrace replay [-shrink] trace.jsonl
//	    re-runs the session recorded in the trace header and verifies the
//	    event stream is byte-for-byte reproducible; -shrink additionally
//	    minimizes a violating session to the smallest event-count bound
//	    that still reproduces the violation.
//
// The session flags are [-policy PROP-G|PROP-O] [-n 48] [-nhops 2] [-m 0]
// [-minutes 30] [-preset ts-small|ts-large] [-seed 0] [-interval 0]
// [-fault ghost-edge|drop-edge] [-fault-after 0]; their defaults are
// audit.SessionConfig's. A session exits 1 when the audit found violations
// (e.g. under an injected fault) or its flags name no runnable session.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/audit"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "record":
			runRecord(os.Args[2:])
			return
		case "replay":
			runReplay(os.Args[2:])
			return
		}
	}
	runTrace(os.Args[1:])
}

// sessionFlags returns a flag set named name that fills a SessionConfig,
// defaulted as RunSession defaults it.
func sessionFlags(name string) (*flag.FlagSet, *audit.SessionConfig) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	cfg := audit.SessionConfig{}.WithDefaults()
	fs.StringVar(&cfg.Policy, "policy", cfg.Policy, "exchange policy: PROP-G (swap positions) or PROP-O (trade m neighbors)")
	fs.IntVar(&cfg.Nodes, "n", cfg.Nodes, "overlay size")
	fs.IntVar(&cfg.NHops, "nhops", cfg.NHops, "probe walk TTL")
	fs.IntVar(&cfg.M, "m", cfg.M, "PROP-O exchange size (0 = minimum degree)")
	fs.Float64Var(&cfg.Minutes, "minutes", cfg.Minutes, "simulated optimization time")
	fs.StringVar(&cfg.Preset, "preset", cfg.Preset, "physical topology: ts-small | ts-large")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "deterministic seed")
	fs.IntVar(&cfg.Interval, "interval", cfg.Interval, "invariant sampling interval (0 = build default)")
	fs.StringVar(&cfg.Fault, "fault", cfg.Fault, "inject a fault: ghost-edge | drop-edge")
	fs.IntVar(&cfg.FaultAfter, "fault-after", cfg.FaultAfter, "inject the fault at this exchange index")
	return fs, &cfg
}

// runTrace runs one audited session and prints it for a human.
func runTrace(args []string) {
	fs, cfg := sessionFlags("proptrace")
	quiet := fs.Bool("quiet", false, "suppress the per-exchange trace")
	fs.Parse(args)

	var emit func(audit.Record)
	if !*quiet {
		emit = func(rec audit.Record) {
			if rec.Kind == audit.KindExchange {
				fmt.Printf("t=%7.1fmin  exchange %4d <-> %-4d  Var=%8.1f ms  moved=%d\n",
					rec.At/60000, rec.A, rec.B, rec.Val, rec.Aux[0])
			}
		}
	}
	s, err := audit.RunSession(*cfg, emit)
	if err != nil {
		fail(err)
	}

	o, c := s.Overlay, s.Counters
	phys := s.Net.MeanLinkLatency()
	fmt.Printf("\n%s\n", s.Net)
	fmt.Printf("%s for %g simulated minutes on %d peers, %d links (nhops=%d, seed=%d)\n",
		cfg.Policy, cfg.Minutes, o.NumAlive(), o.Logical.NumEdges(), cfg.NHops, cfg.Seed)
	fmt.Printf("before:  mean link %.1f ms, stretch %.2f\n", s.BeforeMS, s.BeforeMS/phys)
	fmt.Printf("after:   mean link %.1f ms, stretch %.2f\n", o.MeanLinkLatency(), o.Stretch(phys))
	fmt.Printf("probes=%d exchanges=%d rejected=%d walk-failures=%d\n",
		c.Probes, c.Exchanges, c.Rejected, c.WalkFailures)
	fmt.Printf("messages: walk=%d measure=%d notify=%d (%.1f probe msgs/adjustment)\n",
		c.WalkMessages, c.MeasureMessages, c.NotifyMessages, c.MessagesPerAdjustment())
	fmt.Println(s.Summary())
	exitOnViolations(s.Auditor, "")
}

// runRecord executes one audited session and writes the replayable trace.
func runRecord(args []string) {
	fs, cfg := sessionFlags("proptrace record")
	out := fs.String("out", "trace.jsonl", "trace output file (- for stdout)")
	fs.Parse(args)

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	sink := audit.NewSink(w, *cfg)
	s, err := audit.RunSession(*cfg, sink.Emit)
	if err != nil {
		fail(err)
	}
	if err := sink.Close(); err != nil {
		fail(err)
	}

	fmt.Fprintf(os.Stderr, "proptrace: %s\n", s.Summary())
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "proptrace: wrote %d records to %s\n", s.Events(), *out)
	}
	exitOnViolations(s.Auditor, fmt.Sprintf("replay with `proptrace replay -shrink %s` for a minimal reproducer", *out))
}

// exitOnViolations reports every violation a found, then hint, on stderr
// and exits 1; a clean audit returns.
func exitOnViolations(a *audit.Auditor, hint string) {
	vs := a.Violations()
	if len(vs) == 0 {
		return
	}
	for _, v := range vs {
		fmt.Fprintf(os.Stderr, "proptrace: VIOLATION %s\n", v)
	}
	if hint != "" {
		fmt.Fprintf(os.Stderr, "proptrace: %s\n", hint)
	}
	os.Exit(1)
}

// runReplay re-runs a recorded session and checks reproducibility.
func runReplay(args []string) {
	fs := flag.NewFlagSet("proptrace replay", flag.ExitOnError)
	shrink := fs.Bool("shrink", false, "minimize a violating session to the smallest reproducing event bound")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fail(fmt.Errorf("usage: proptrace replay [-shrink] trace.jsonl"))
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fail(err)
	}
	defer f.Close()
	hdr, recs, err := audit.ReadTrace(f)
	if err != nil {
		fail(err)
	}
	fmt.Printf("trace: %d records, session %+v\n", len(recs), hdr.Config)

	if err := audit.Replay(hdr.Config, recs); err != nil {
		fail(err)
	}
	fmt.Println("replay: event stream reproduced exactly")

	s, err := audit.RunSession(hdr.Config, nil)
	if err != nil {
		fail(err)
	}
	fmt.Println(s.Summary())
	if len(s.Violations()) == 0 {
		if *shrink {
			fmt.Println("shrink: session is clean, nothing to minimize")
		}
		return
	}
	if !*shrink {
		os.Exit(1)
	}
	small, v, err := audit.Shrink(hdr.Config, "")
	if err != nil {
		fail(err)
	}
	fmt.Printf("shrink: violation %q reproduces within the first %d engine steps\n", v.Name, small.MaxEvents)
	fmt.Printf("shrink: minimal config %+v\n", small)
	os.Exit(1)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "proptrace: %v\n", err)
	os.Exit(1)
}
