// Structured trace recording. Every protocol-level event — probe, exchange,
// lookup, churn, rewire — is captured as one compact Record. The Recorder
// keeps a bounded in-memory window (enough context to explain a violation)
// and optionally streams the full sequence to a sink, which is how
// `proptrace record` produces a replayable trace file.
package audit

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Kind classifies a trace record.
type Kind uint8

const (
	// KindProbe is one PROP timer firing (core.ProbeEvent).
	KindProbe Kind = iota
	// KindExchange is one executed PROP peer-exchange (core.ExchangeEvent).
	KindExchange
	// KindLookup is one completed DHT lookup.
	KindLookup
	// KindJoin is one churn arrival.
	KindJoin
	// KindLeave is one churn departure.
	KindLeave
	// KindRewire is one LTM link cut or add.
	KindRewire
)

var kindNames = [...]string{"probe", "exchange", "lookup", "join", "leave", "rewire"}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Record is one traced event. The field meaning depends on Kind:
//
//	probe:    A = prober slot, B = walk partner (-1 on walk failure),
//	          Val = 1 if the probe ended in an exchange
//	exchange: A, B = exchanged slots, Val = Var, Aux = [moved]
//	lookup:   A = source slot, B = terminal slot, Aux = [hops, wantOwner],
//	          Val = latency
//	join:     A = new slot, B = host
//	leave:    A = departed slot, B = released host
//	rewire:   A, B = link endpoints, Val = 1 for add, 0 for cut
type Record struct {
	// Seq is the record's position in the trace, assigned by the Recorder.
	Seq uint64 `json:"q"`
	// At is the simulated time in milliseconds.
	At float64 `json:"t"`
	// Kind classifies the event.
	Kind Kind `json:"k"`
	// A and B are the participant IDs (see Kind docs).
	A int `json:"a"`
	B int `json:"b"`
	// Aux carries kind-specific integer payload.
	Aux []int `json:"x,omitempty"`
	// Val carries kind-specific scalar payload (Var, latency, ...).
	Val float64 `json:"v,omitempty"`
}

// equal reports whether two records describe the identical event.
func (r Record) equal(o Record) bool {
	if r.Seq != o.Seq || r.At != o.At || r.Kind != o.Kind ||
		r.A != o.A || r.B != o.B || r.Val != o.Val || len(r.Aux) != len(o.Aux) {
		return false
	}
	for i := range r.Aux {
		if r.Aux[i] != o.Aux[i] {
			return false
		}
	}
	return true
}

// DefaultWindow is the Recorder's default in-memory window size.
const DefaultWindow = 256

// Recorder accumulates trace records: a bounded ring of the most recent
// ones, a running total, and an optional Emit callback that observes the
// full stream (used to write trace files).
type Recorder struct {
	// Emit, if non-nil, receives every appended record.
	Emit func(Record)

	capacity int
	buf      []Record
	start    int
	total    uint64
}

// NewRecorder returns a recorder keeping the last capacity records
// (DefaultWindow if capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultWindow
	}
	return &Recorder{capacity: capacity}
}

// Append stamps rec with the next sequence number, stores it in the window,
// and forwards it to Emit. It returns the stamped record.
func (rc *Recorder) Append(rec Record) Record {
	rec.Seq = rc.total
	rc.total++
	if len(rc.buf) < rc.capacity {
		rc.buf = append(rc.buf, rec)
	} else {
		rc.buf[rc.start] = rec
		rc.start = (rc.start + 1) % rc.capacity
	}
	if rc.Emit != nil {
		rc.Emit(rec)
	}
	return rec
}

// Window returns the retained records in chronological order (a copy).
func (rc *Recorder) Window() []Record {
	out := make([]Record, 0, len(rc.buf))
	for i := 0; i < len(rc.buf); i++ {
		out = append(out, rc.buf[(rc.start+i)%len(rc.buf)])
	}
	return out
}

// Total reports how many records have been appended overall.
func (rc *Recorder) Total() uint64 { return rc.total }

// TraceFormat identifies the trace file format.
const TraceFormat = "prop-audit-trace"

// TraceVersion is the current trace file version. Version 2 names the
// preset as netsim.Preset does ("ts-small", not "small").
const TraceVersion = 2

// Header is the first line of a trace file: it carries the full session
// configuration, which is what makes the trace deterministically replayable.
type Header struct {
	Format  string        `json:"format"`
	Version int           `json:"version"`
	Config  SessionConfig `json:"config"`
}

// Sink streams a trace (header + records) as JSON lines.
type Sink struct {
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

// NewSink writes the header line for cfg and returns a sink whose Emit
// method appends records.
func NewSink(w io.Writer, cfg SessionConfig) *Sink {
	bw := bufio.NewWriter(w)
	s := &Sink{w: bw, enc: json.NewEncoder(bw)}
	s.err = s.enc.Encode(Header{Format: TraceFormat, Version: TraceVersion, Config: cfg})
	return s
}

// Emit appends one record line. Errors are sticky; check Close.
func (s *Sink) Emit(rec Record) {
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(rec)
}

// Close flushes the sink and returns the first write error.
func (s *Sink) Close() error {
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// ReadTrace parses a trace written by Sink: the header line followed by one
// record per line.
func ReadTrace(r io.Reader) (Header, []Record, error) {
	dec := json.NewDecoder(r)
	var hdr Header
	if err := dec.Decode(&hdr); err != nil {
		return hdr, nil, fmt.Errorf("audit: reading trace header: %w", err)
	}
	if hdr.Format != TraceFormat {
		return hdr, nil, fmt.Errorf("audit: not a %s file (format %q)", TraceFormat, hdr.Format)
	}
	if hdr.Version != TraceVersion {
		return hdr, nil, fmt.Errorf("audit: trace version %d, want %d", hdr.Version, TraceVersion)
	}
	var recs []Record
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			return hdr, recs, nil
		} else if err != nil {
			return hdr, recs, fmt.Errorf("audit: reading trace record %d: %w", len(recs), err)
		}
		recs = append(recs, rec)
	}
}
