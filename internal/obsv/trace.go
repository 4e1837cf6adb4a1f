package obsv

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
)

// EventKind tags one trace event. The vocabulary is the RCPN token game
// itself: tokens are born at sources, move between places when
// transitions fire, and retire at sinks; firings are recorded separately
// so transition activity is visible even when token identity is not of
// interest.
type EventKind uint8

const (
	// EvBirth: a token entered the model. Loc is the birth place.
	EvBirth EventKind = iota
	// EvMove: a token moved into place Loc (Aux is the source place, or
	// -1 when unknown).
	EvMove
	// EvRetire: a token left the model (retired/committed). Loc is the
	// place it retired from.
	EvRetire
	// EvFire: transition Aux fired, consuming the token in place Loc.
	EvFire

	numEventKinds
)

var eventNames = [numEventKinds]string{"birth", "move", "retire", "fire"}

func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("eventkind(%d)", uint8(k))
}

// Event is one fixed-size trace record. Cycle is the only timestamp —
// trace files carry simulated time, never wall-clock, so identical runs
// produce identical bytes.
type Event struct {
	Cycle int64
	Tok   uint64 // token sequence number (engine-assigned, stable)
	Loc   int32  // place / stage index into the Locs name table
	Aux   int32  // transition index (EvFire), source place (EvMove), or -1
	Kind  EventKind
}

// Tracer is a bounded ring buffer of Events. When the buffer is full the
// oldest events are overwritten — the trace keeps the *last* Cap events,
// which is what post-mortem inspection wants — and Dropped counts what
// was lost so writers can say so. All methods are single-goroutine, like
// the engines that call them.
type Tracer struct {
	buf     []Event
	head    int // index of the oldest event when full
	dropped uint64

	// Locs and Ops are the name tables events index into: pipeline
	// places/stages and transitions/operations respectively. Engines set
	// them at attach time.
	Locs []string
	Ops  []string
}

// DefaultTraceEvents is the ring capacity used when a caller enables
// tracing without choosing one.
const DefaultTraceEvents = 1 << 16

// NewTracer builds a tracer holding at most capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Emit appends one event, evicting the oldest when the ring is full.
func (t *Tracer) Emit(e Event) {
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
		return
	}
	t.buf[t.head] = e
	t.head++
	if t.head == len(t.buf) {
		t.head = 0
	}
	t.dropped++
}

// Birth records a token birth. Convenience wrappers keep engine call
// sites to one line behind their nil check.
func (t *Tracer) Birth(cycle int64, tok uint64, loc int32) {
	t.Emit(Event{Cycle: cycle, Kind: EvBirth, Tok: tok, Loc: loc, Aux: -1})
}

// Move records a token arriving in place loc from place from.
func (t *Tracer) Move(cycle int64, tok uint64, loc, from int32) {
	t.Emit(Event{Cycle: cycle, Kind: EvMove, Tok: tok, Loc: loc, Aux: from})
}

// Retire records a token leaving the model from place loc.
func (t *Tracer) Retire(cycle int64, tok uint64, loc int32) {
	t.Emit(Event{Cycle: cycle, Kind: EvRetire, Tok: tok, Loc: loc, Aux: -1})
}

// Fire records transition op firing on the token in place loc.
func (t *Tracer) Fire(cycle int64, tok uint64, loc, op int32) {
	t.Emit(Event{Cycle: cycle, Kind: EvFire, Tok: tok, Loc: loc, Aux: op})
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int { return len(t.buf) }

// Dropped returns how many events were evicted by the ring bound.
func (t *Tracer) Dropped() uint64 { return t.dropped }

// Events returns the buffered events in emission order (oldest first).
// The slice is freshly allocated; the ring is not disturbed.
func (t *Tracer) Events() []Event {
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.head:]...)
	out = append(out, t.buf[:t.head]...)
	return out
}

func (t *Tracer) locName(i int32) string {
	if i >= 0 && int(i) < len(t.Locs) {
		return t.Locs[i]
	}
	return fmt.Sprintf("loc%d", i)
}

func (t *Tracer) opName(i int32) string {
	if i >= 0 && int(i) < len(t.Ops) {
		return t.Ops[i]
	}
	return fmt.Sprintf("op%d", i)
}

// WriteChromeJSON writes the trace in Chrome trace_event JSON object
// format (load via chrome://tracing or Perfetto). Cycle numbers are used
// directly as microsecond timestamps so one trace microsecond is one
// simulated cycle; each token renders as one "thread" (tid = token
// sequence), place residencies as B/E duration events and transition
// firings as instant events. Output is deterministic.
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, `{"displayTimeUnit":"ms","otherData":{"dropped":`); err != nil {
		return err
	}
	fmt.Fprintf(bw, `%d},"traceEvents":[`, t.dropped)
	first := true
	emit := func(ph, name string, e Event, args string) {
		if !first {
			bw.WriteByte(',') //nolint:errcheck // error surfaces at Flush
		}
		first = false
		fmt.Fprintf(bw, `{"name":%s,"ph":%q,"ts":%d,"pid":1,"tid":%d%s}`,
			jsonString(name), ph, e.Cycle, e.Tok, args)
	}
	for _, e := range t.Events() {
		switch e.Kind {
		case EvBirth:
			emit("B", t.locName(e.Loc), e, "")
		case EvMove:
			// Close the previous residency and open the new one at the
			// same simulated instant.
			emit("E", t.locName(e.Aux), e, "")
			emit("B", t.locName(e.Loc), e, "")
		case EvRetire:
			emit("E", t.locName(e.Loc), e, "")
		case EvFire:
			emit("i", t.opName(e.Aux), e, `,"s":"t"`)
		}
	}
	if _, err := io.WriteString(bw, "]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// Binary trace format "RCPNTRC1": a compact self-describing container.
//
//	magic   [8]byte "RCPNTRC1"
//	dropped uint64
//	nlocs   uint32, then nlocs length-prefixed strings
//	nops    uint32, then nops length-prefixed strings
//	nevents uint32, then nevents fixed 22-byte records:
//	        cycle int64 | tok uint64 | loc int32 | aux int32 | kind uint8 | pad uint8
//
// All integers little-endian. Fixed-width records keep the writer
// allocation-free and the format trivially seekable.
const binaryMagic = "RCPNTRC1"

const binaryRecordSize = 8 + 8 + 4 + 4 + 1 + 1

// WriteBinary writes the compact binary form of the trace.
func (t *Tracer) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, binaryMagic); err != nil {
		return err
	}
	var scratch [binaryRecordSize]byte
	binary.LittleEndian.PutUint64(scratch[:8], t.dropped)
	bw.Write(scratch[:8]) //nolint:errcheck // error surfaces at Flush
	writeStrings := func(ss []string) {
		binary.LittleEndian.PutUint32(scratch[:4], uint32(len(ss)))
		bw.Write(scratch[:4]) //nolint:errcheck
		for _, s := range ss {
			binary.LittleEndian.PutUint32(scratch[:4], uint32(len(s)))
			bw.Write(scratch[:4]) //nolint:errcheck
			io.WriteString(bw, s) //nolint:errcheck
		}
	}
	writeStrings(t.Locs)
	writeStrings(t.Ops)
	events := t.Events()
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(events)))
	bw.Write(scratch[:4]) //nolint:errcheck
	for _, e := range events {
		binary.LittleEndian.PutUint64(scratch[0:8], uint64(e.Cycle))
		binary.LittleEndian.PutUint64(scratch[8:16], e.Tok)
		binary.LittleEndian.PutUint32(scratch[16:20], uint32(e.Loc))
		binary.LittleEndian.PutUint32(scratch[20:24], uint32(e.Aux))
		scratch[24] = byte(e.Kind)
		scratch[25] = 0
		bw.Write(scratch[:]) //nolint:errcheck
	}
	return bw.Flush()
}

// ReadBinary parses a trace written by WriteBinary, returning a tracer
// whose Events/Locs/Ops/Dropped round-trip the original. It accepts only
// what WriteBinary writes: a nonzero pad byte or data after the last
// event is an error. The tables grow with the records actually read, not
// with the declared counts, so a hostile header costs no more than the
// input carries.
func ReadBinary(r io.Reader) (*Tracer, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("obsv: trace header: %w", err)
	}
	if string(magic[:]) != binaryMagic {
		return nil, fmt.Errorf("obsv: bad trace magic %q", magic[:])
	}
	var scratch [binaryRecordSize]byte
	if _, err := io.ReadFull(br, scratch[:8]); err != nil {
		return nil, fmt.Errorf("obsv: trace dropped count: %w", err)
	}
	dropped := binary.LittleEndian.Uint64(scratch[:8])
	readStrings := func(what string) ([]string, error) {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return nil, fmt.Errorf("obsv: %s count: %w", what, err)
		}
		n := binary.LittleEndian.Uint32(scratch[:4])
		if n > 1<<20 {
			return nil, fmt.Errorf("obsv: implausible %s count %d", what, n)
		}
		ss := make([]string, 0, min(n, maxPrealloc))
		for i := uint32(0); i < n; i++ {
			if _, err := io.ReadFull(br, scratch[:4]); err != nil {
				return nil, fmt.Errorf("obsv: %s[%d] length: %w", what, i, err)
			}
			ln := binary.LittleEndian.Uint32(scratch[:4])
			if ln > 1<<16 {
				return nil, fmt.Errorf("obsv: implausible %s[%d] length %d", what, i, ln)
			}
			b := make([]byte, ln)
			if _, err := io.ReadFull(br, b); err != nil {
				return nil, fmt.Errorf("obsv: %s[%d]: %w", what, i, err)
			}
			ss = append(ss, string(b))
		}
		return ss, nil
	}
	locs, err := readStrings("locs")
	if err != nil {
		return nil, err
	}
	ops, err := readStrings("ops")
	if err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(br, scratch[:4]); err != nil {
		return nil, fmt.Errorf("obsv: event count: %w", err)
	}
	n := binary.LittleEndian.Uint32(scratch[:4])
	if n > 1<<28 {
		return nil, fmt.Errorf("obsv: implausible event count %d", n)
	}
	events := make([]Event, 0, min(n, maxPrealloc))
	for i := uint32(0); i < n; i++ {
		if _, err := io.ReadFull(br, scratch[:]); err != nil {
			return nil, fmt.Errorf("obsv: event %d: %w", i, err)
		}
		if scratch[25] != 0 {
			return nil, fmt.Errorf("obsv: event %d: nonzero pad byte", i)
		}
		events = append(events, Event{
			Cycle: int64(binary.LittleEndian.Uint64(scratch[0:8])),
			Tok:   binary.LittleEndian.Uint64(scratch[8:16]),
			Loc:   int32(binary.LittleEndian.Uint32(scratch[16:20])),
			Aux:   int32(binary.LittleEndian.Uint32(scratch[20:24])),
			Kind:  EventKind(scratch[24]),
		})
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			err = errors.New("data after the last event")
		}
		return nil, fmt.Errorf("obsv: trace trailer: %w", err)
	}
	// The ring's capacity is the event count, as in the traced run; a
	// zero-capacity ring could not record, so an empty trace keeps one slot.
	events = slices.Clip(events)
	if n == 0 {
		events = make([]Event, 0, 1)
	}
	return &Tracer{buf: events, dropped: dropped, Locs: locs, Ops: ops}, nil
}

// maxPrealloc bounds the elements a declared count may reserve before its
// records arrive; past it, slices grow as the records are read.
const maxPrealloc = 1024

// Stall-snapshot checkpoint framing. A profiled job's checkpoint must
// carry its accounting along with the simulator's architected state — a
// resume that restored only the simulator would emit a profile missing
// the donor attempt's cycles, breaking resumed-result byte identity.
// WrapStalls frames a snapshot ahead of an opaque payload; unprofiled
// payloads stay unframed (engine checkpoint codecs have their own magic,
// so the two cannot collide).
const stallMagic = "RCPNSTL1"

// WrapStalls frames snap ahead of payload.
func WrapStalls(snap *StallSnapshot, payload []byte) []byte {
	js, err := json.Marshal(snap)
	if err != nil {
		return payload
	}
	out := make([]byte, 0, len(stallMagic)+4+len(js)+len(payload))
	out = append(out, stallMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(js)))
	out = append(out, js...)
	return append(out, payload...)
}

// SplitStalls undoes WrapStalls. Unframed (or unparseable) input returns
// (nil, raw) untouched, so callers can pass any payload through it.
func SplitStalls(raw []byte) (*StallSnapshot, []byte) {
	if len(raw) < len(stallMagic)+4 || string(raw[:len(stallMagic)]) != stallMagic {
		return nil, raw
	}
	n := binary.LittleEndian.Uint32(raw[len(stallMagic):])
	body := raw[len(stallMagic)+4:]
	if uint64(len(body)) < uint64(n) {
		return nil, raw
	}
	var snap StallSnapshot
	if err := json.Unmarshal(body[:n], &snap); err != nil {
		return nil, raw
	}
	return &snap, body[n:]
}
