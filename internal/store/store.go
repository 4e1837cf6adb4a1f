// Package store is the durability layer of the simulation service: a
// crash-safe record of every accepted job, its latest checkpoint and its
// final result, kept under a single data directory so an rcpnserve process
// can be killed at any instruction and restarted without losing accepted
// work or finished results.
//
// Three kinds of state, three disciplines:
//
//   - The job journal (journal.log) is an append-only sequence of
//     CRC-framed records — submit, done, failed, drop — fsynced after every
//     append. Recovery replays it to rebuild which jobs were accepted and
//     which finished; a job with no terminal record is still owed to the
//     client and is re-enqueued on restart.
//   - Results (results/<id>.json) and checkpoints (ckpt/<id>.ck) are
//     whole-file values written with the atomic-rename protocol: write to a
//     temp file, fsync, rename into place, fsync the directory. A reader
//     never observes a half-written file.
//   - Anything that fails validation during recovery — a torn journal
//     tail, a frame with a bad CRC, a checkpoint whose payload does not
//     decode — is quarantined (moved into quarantine/) rather than trusted
//     or fatal: recovery always succeeds, degrading the damaged job to
//     "restart from scratch or from the last good state" instead of
//     refusing to boot.
//
// The journal is compacted on every open: after recovery the live state is
// rewritten as a fresh journal (atomic rename again), so the file does not
// grow without bound across restarts and a corrupt tail never survives a
// second boot. Results are byte-identical to the rcpn-batch/v1 payloads the
// service produced, so a cache rebuilt from disk serves the same bytes a
// fresh run would.
//
// Every write site is threaded through internal/faultinj, so tests drive
// the failure paths deterministically.
package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"rcpn/internal/ckpt"
	"rcpn/internal/faultinj"
	"rcpn/internal/obsv"
)

// Job states as recovered from the journal.
const (
	StatePending = "pending" // accepted, no terminal record: owed to the client
	StateDone    = "done"
	StateFailed  = "failed"
)

// Job is one recovered job.
type Job struct {
	ID    string
	Spec  []byte // canonical spec bytes ("" when only the result survived)
	State string
	Diag  string // failure diagnostics for StateFailed
	// Result is the rcpn-batch/v1 payload for done/failed jobs, loaded and
	// validated from results/<id>.json.
	Result []byte
}

// journal framing. Each frame is
//
//	u32 payload length | u32 IEEE CRC-32 of payload | payload
//
// after an 12-byte file header (magic + version). A frame that fails any
// check ends the scan: everything before it is trusted, everything from it
// on is quarantined.
var journalMagic = [8]byte{'R', 'C', 'P', 'N', 'J', 'R', 'N', 'L'}

const (
	journalVersion  = 1
	maxFramePayload = 4 << 20 // a spec is capped near 1 MiB; 4 MiB is generous
)

// record is the journal payload, one JSON object per frame.
type record struct {
	Op   string          `json:"op"` // submit | done | failed | drop
	ID   string          `json:"id"`
	Spec json.RawMessage `json:"spec,omitempty"`
	Diag string          `json:"diag,omitempty"`
}

// checkpoint file framing: a fixed header binding the RCPNCKPT payload to
// the job's cumulative progress, CRC-protected so a torn write is detected
// before the codec ever sees it.
var ckptMagic = [8]byte{'R', 'C', 'P', 'N', 'J', 'O', 'B', 'C'}

const ckptVersion = 1

// Store is an open data directory. Methods are safe for concurrent use.
type Store struct {
	dir  string
	inj  *faultinj.Injector
	logf func(format string, args ...any)

	mu      sync.Mutex
	journal *os.File
	qseq    int
}

// Open opens (creating if needed) the data directory, recovers the job set
// from the journal and result files, compacts the journal, and returns the
// store plus the recovered jobs in journal order (orphaned results, if any,
// follow sorted by id). inj may be nil; logf may be nil (quarantine and
// recovery notes are dropped).
func Open(dir string, inj *faultinj.Injector, logf func(string, ...any)) (*Store, []Job, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Store{dir: dir, inj: inj, logf: logf}
	for _, sub := range []string{"", "results", "ckpt", "quarantine"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, nil, fmt.Errorf("store: %w", err)
		}
	}
	jobs, err := s.recover()
	if err != nil {
		return nil, nil, err
	}
	if err := s.compact(jobs); err != nil {
		return nil, nil, err
	}
	return s, jobs, nil
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// Close closes the journal.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	err := s.journal.Close()
	s.journal = nil
	return err
}

// ---- journal writes --------------------------------------------------------

// LogSubmit records an accepted job and its canonical spec.
func (s *Store) LogSubmit(id string, spec []byte) error {
	return s.append(record{Op: "submit", ID: id, Spec: json.RawMessage(spec)})
}

// LogDone records successful completion (the result file must already be in
// place, so a crash between the two leaves the job pending, never done-
// without-result).
func (s *Store) LogDone(id string) error {
	return s.append(record{Op: "done", ID: id})
}

// LogFailed records terminal (poisoned) failure with diagnostics.
func (s *Store) LogFailed(id, diag string) error {
	return s.append(record{Op: "failed", ID: id, Diag: diag})
}

// Drop forgets a job: its files are deleted, then a drop record is
// journaled so recovery does not resurrect it. Used when the result cache
// evicts an entry — disk usage tracks the cache bound.
func (s *Store) Drop(id string) error {
	if err := removeIfExists(s.resultPath(id)); err != nil {
		return err
	}
	if err := removeIfExists(s.ckptPath(id)); err != nil {
		return err
	}
	return s.append(record{Op: "drop", ID: id})
}

func (s *Store) append(rec record) error {
	frame, err := appendFrame(nil, rec)
	if err != nil {
		return fmt.Errorf("store: encode record: %w", err)
	}
	if err := s.inj.Hit(faultinj.SiteJournalAppend, 0); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return fmt.Errorf("store: journal closed")
	}
	if _, err := s.journal.Write(frame); err != nil {
		return fmt.Errorf("store: journal append: %w", err)
	}
	if err := s.journal.Sync(); err != nil {
		return fmt.Errorf("store: journal sync: %w", err)
	}
	return nil
}

// ---- results ---------------------------------------------------------------

func (s *Store) resultPath(id string) string {
	return filepath.Join(s.dir, "results", id+".json")
}

// WriteResult durably stores the job's rcpn-batch/v1 payload.
func (s *Store) WriteResult(id string, payload []byte) error {
	if err := s.inj.Hit(faultinj.SiteResultWrite, 0); err != nil {
		return err
	}
	return atomicWrite(s.resultPath(id), payload)
}

// ReadResult loads a stored payload. fs.ErrNotExist when absent.
func (s *Store) ReadResult(id string) ([]byte, error) {
	return os.ReadFile(s.resultPath(id))
}

// ---- checkpoints -----------------------------------------------------------

func (s *Store) ckptPath(id string) string {
	return filepath.Join(s.dir, "ckpt", id+".ck")
}

// WriteCheckpoint durably stores the job's latest checkpoint: the encoded
// RCPNCKPT payload plus the cumulative (instret, cycles) at its boundary.
// Atomic-rename, so a crash mid-write leaves the previous checkpoint.
func (s *Store) WriteCheckpoint(id string, instret uint64, cycles int64, payload []byte) error {
	if err := s.inj.Hit(faultinj.SiteCkptWrite, instret); err != nil {
		return err
	}
	buf := make([]byte, 0, 36+len(payload))
	buf = append(buf, ckptMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, ckptVersion)
	buf = binary.LittleEndian.AppendUint64(buf, instret)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cycles))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return atomicWrite(s.ckptPath(id), buf)
}

// ReadCheckpoint loads and validates the job's checkpoint. A missing file
// returns fs.ErrNotExist; a corrupt one (bad magic, length, CRC, or a
// payload the RCPNCKPT codec rejects) is quarantined and then reported as
// fs.ErrNotExist — the caller restarts the job from scratch, never crashes.
func (s *Store) ReadCheckpoint(id string) (instret uint64, cycles int64, payload []byte, err error) {
	if err := s.inj.Hit(faultinj.SiteCkptRead, 0); err != nil {
		return 0, 0, nil, err
	}
	path := s.ckptPath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, nil, err
	}
	instret, cycles, payload, verr := parseCkptFile(data)
	if verr != nil {
		s.Quarantine(path, verr.Error())
		return 0, 0, nil, fmt.Errorf("store: checkpoint %s quarantined (%v): %w", ShortID(id), verr, fs.ErrNotExist)
	}
	return instret, cycles, payload, nil
}

func parseCkptFile(data []byte) (instret uint64, cycles int64, payload []byte, err error) {
	if len(data) < 36 || [8]byte(data[:8]) != ckptMagic {
		return 0, 0, nil, fmt.Errorf("bad header")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != ckptVersion {
		return 0, 0, nil, fmt.Errorf("unsupported version %d", v)
	}
	instret = binary.LittleEndian.Uint64(data[12:])
	cycles = int64(binary.LittleEndian.Uint64(data[20:]))
	sum := binary.LittleEndian.Uint32(data[28:])
	n := binary.LittleEndian.Uint32(data[32:])
	payload = data[36:]
	if uint32(len(payload)) != n {
		return 0, 0, nil, fmt.Errorf("payload length %d, header says %d", len(payload), n)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, 0, nil, fmt.Errorf("payload CRC mismatch")
	}
	// Profiled jobs frame a stall snapshot ahead of the engine bytes
	// (obsv.WrapStalls); validate whichever part the RCPNCKPT codec owns.
	_, engine := obsv.SplitStalls(payload)
	if _, err := ckpt.FromBytes(engine); err != nil {
		return 0, 0, nil, fmt.Errorf("payload does not decode: %v", err)
	}
	return instret, cycles, payload, nil
}

// DeleteCheckpoint removes the job's checkpoint (finished jobs do not need
// one). Missing is not an error.
func (s *Store) DeleteCheckpoint(id string) error {
	return removeIfExists(s.ckptPath(id))
}

// QuarantineCheckpoint moves the job's checkpoint aside (used when a
// structurally valid checkpoint fails to restore into a simulator).
func (s *Store) QuarantineCheckpoint(id, why string) {
	s.Quarantine(s.ckptPath(id), why)
}

// ---- quarantine ------------------------------------------------------------

// Quarantine moves path into the quarantine directory with a sequence
// suffix, logging why. Best-effort: quarantine failures are logged, never
// propagated, because quarantine runs on paths that are already damaged.
func (s *Store) Quarantine(path, why string) {
	s.mu.Lock()
	s.qseq++
	seq := s.qseq
	s.mu.Unlock()
	dst := filepath.Join(s.dir, "quarantine", fmt.Sprintf("%s.%d", filepath.Base(path), seq))
	if err := os.Rename(path, dst); err != nil {
		if !os.IsNotExist(err) {
			s.logf("store: quarantine %s: %v", path, err)
		}
		return
	}
	s.logf("store: quarantined %s -> %s: %s", filepath.Base(path), filepath.Base(dst), why)
}

// QuarantineCount reports how many files sit in quarantine (observability
// and tests).
func (s *Store) QuarantineCount() int {
	ents, err := os.ReadDir(filepath.Join(s.dir, "quarantine"))
	if err != nil {
		return 0
	}
	return len(ents)
}

// ---- recovery --------------------------------------------------------------

func (s *Store) journalPath() string { return filepath.Join(s.dir, "journal.log") }

// recover replays the journal and loads result files, returning the live
// job set. Never fails on damaged content — only on environmental errors
// (unreadable directory).
func (s *Store) recover() ([]Job, error) {
	type slot struct {
		j     Job
		order int
	}
	jobs := make(map[string]*slot)
	order := 0

	data, err := os.ReadFile(s.journalPath())
	switch {
	case os.IsNotExist(err):
		// Fresh directory: nothing to replay.
	case err != nil:
		return nil, fmt.Errorf("store: read journal: %w", err)
	default:
		err := replayJournal(data, func(rec record) {
			sl := jobs[rec.ID]
			if sl == nil {
				sl = &slot{j: Job{ID: rec.ID}, order: order}
				order++
				jobs[rec.ID] = sl
			}
			switch rec.Op {
			case "submit":
				sl.j.Spec = []byte(rec.Spec)
				if sl.j.State == "" {
					sl.j.State = StatePending
				}
			case "done":
				sl.j.State = StateDone
			case "failed":
				sl.j.State = StateFailed
				sl.j.Diag = rec.Diag
			case "drop":
				delete(jobs, rec.ID)
			default:
				s.logf("store: journal: unknown op %q for %s (ignored)", rec.Op, ShortID(rec.ID))
			}
		})
		if err != nil {
			s.Quarantine(s.journalPath(), err.Error())
		}
	}

	var out []Job
	for _, sl := range jobs {
		out = append(out, sl.j)
	}
	sort.Slice(out, func(i, k int) bool { return jobs[out[i].ID].order < jobs[out[k].ID].order })

	// Attach results; a terminal job whose payload is missing or damaged
	// degrades to pending (re-run; results are deterministic) when its spec
	// survives, else it is dropped.
	live := out[:0]
	for _, j := range out {
		if j.State == StateDone || j.State == StateFailed {
			payload, err := s.ReadResult(j.ID)
			switch {
			case err == nil && json.Valid(payload):
				j.Result = payload
			case err == nil:
				s.Quarantine(s.resultPath(j.ID), "result is not valid JSON")
				fallthrough
			default:
				if len(j.Spec) == 0 {
					s.logf("store: %s job %s has no result and no spec; dropping", j.State, ShortID(j.ID))
					continue
				}
				s.logf("store: %s job %s lost its result; re-running", j.State, ShortID(j.ID))
				j.State, j.Diag, j.Result = StatePending, "", nil
			}
			// Terminal jobs keep no checkpoint.
			if j.State != StatePending {
				removeIfExists(s.ckptPath(j.ID)) //nolint:errcheck // best-effort cleanup
			}
		}
		if j.State == StatePending && len(j.Spec) == 0 {
			s.logf("store: pending job %s has no spec; dropping", ShortID(j.ID))
			continue
		}
		live = append(live, j)
	}
	out = live

	// Adopt orphaned result files (journal lost or quarantined): the file
	// name is the content address and the payload is self-describing, so the
	// result is still servable even though the spec is gone.
	seen := make(map[string]bool, len(out))
	for _, j := range out {
		seen[j.ID] = true
	}
	ents, err := os.ReadDir(filepath.Join(s.dir, "results"))
	if err != nil {
		return nil, fmt.Errorf("store: scan results: %w", err)
	}
	var orphans []Job
	for _, e := range ents {
		id, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok || seen[id] || strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		payload, err := s.ReadResult(id)
		if err != nil || !json.Valid(payload) {
			s.Quarantine(s.resultPath(id), "orphaned result is not valid JSON")
			continue
		}
		s.logf("store: adopted orphaned result %s", ShortID(id))
		orphans = append(orphans, Job{ID: id, State: StateDone, Result: payload})
	}
	sort.Slice(orphans, func(i, k int) bool { return orphans[i].ID < orphans[k].ID })
	return append(out, orphans...), nil
}

// replayJournal checks the journal header, then feeds the record of every
// intact frame to apply, in journal order. The first damaged frame ends the
// replay with an error naming its offset: every record before it has been
// applied, nothing from it on.
func replayJournal(data []byte, apply func(record)) error {
	rest, err := checkJournalHeader(data)
	if err != nil {
		return err
	}
	for off, recovered := 12, 0; len(rest) > 0; recovered++ {
		rec, n, err := readFrame(rest)
		if err != nil {
			return fmt.Errorf("frame at offset %d: %v (recovered %d records)", off, err, recovered)
		}
		apply(rec)
		rest = rest[n:]
		off += n
	}
	return nil
}

func checkJournalHeader(data []byte) (rest []byte, err error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("short header (%d bytes)", len(data))
	}
	if [8]byte(data[:8]) != journalMagic {
		return nil, fmt.Errorf("bad magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != journalVersion {
		return nil, fmt.Errorf("unsupported version %d", v)
	}
	return data[12:], nil
}

// appendFrame appends rec to buf as one journal frame.
func appendFrame(buf []byte, rec record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return buf, err
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...), nil
}

func readFrame(data []byte) (rec record, n int, err error) {
	if len(data) < 8 {
		return rec, 0, fmt.Errorf("truncated frame header (%d bytes)", len(data))
	}
	ln := binary.LittleEndian.Uint32(data[0:])
	sum := binary.LittleEndian.Uint32(data[4:])
	if ln > maxFramePayload {
		return rec, 0, fmt.Errorf("frame length %d exceeds limit", ln)
	}
	if len(data) < 8+int(ln) {
		return rec, 0, fmt.Errorf("truncated frame payload (%d of %d bytes)", len(data)-8, ln)
	}
	payload := data[8 : 8+ln]
	if crc32.ChecksumIEEE(payload) != sum {
		return rec, 0, fmt.Errorf("frame CRC mismatch")
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, 0, fmt.Errorf("frame is not a record: %v", err)
	}
	if rec.ID == "" {
		return rec, 0, fmt.Errorf("frame record has no id")
	}
	return rec, 8 + int(ln), nil
}

// compact rewrites the journal to exactly the live state and opens it for
// appending.
func (s *Store) compact(jobs []Job) error {
	var buf []byte
	buf = append(buf, journalMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, journalVersion)
	frame := func(rec record) (err error) {
		buf, err = appendFrame(buf, rec)
		return err
	}
	for _, j := range jobs {
		if len(j.Spec) > 0 {
			if err := frame(record{Op: "submit", ID: j.ID, Spec: json.RawMessage(j.Spec)}); err != nil {
				return fmt.Errorf("store: compact: %w", err)
			}
		}
		switch j.State {
		case StateDone:
			if err := frame(record{Op: "done", ID: j.ID}); err != nil {
				return fmt.Errorf("store: compact: %w", err)
			}
		case StateFailed:
			if err := frame(record{Op: "failed", ID: j.ID, Diag: j.Diag}); err != nil {
				return fmt.Errorf("store: compact: %w", err)
			}
		}
	}
	if err := atomicWrite(s.journalPath(), buf); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	f, err := os.OpenFile(s.journalPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open journal: %w", err)
	}
	s.mu.Lock()
	s.journal = f
	s.mu.Unlock()
	return nil
}

// ---- file primitives -------------------------------------------------------

// atomicWrite is the durable whole-file write: temp file in the same
// directory, fsync, rename over the target, fsync the directory.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) //nolint:errcheck // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: sync %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync %s: %w", dir, err)
	}
	return nil
}

func removeIfExists(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// ShortID abbreviates a content address (its first 12 characters) for logs.
func ShortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
