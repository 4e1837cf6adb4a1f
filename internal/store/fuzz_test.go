package store

import (
	"bytes"
	"runtime"
	"testing"
)

// replayAllocSlack is what a journal replay may allocate beyond a small
// multiple of its input: the record slice, the JSON decoder's state and
// whatever the test runtime allocates in the background.
const replayAllocSlack = 64 << 10

// replayAll replays data and returns the recovered records with the
// replay's verdict.
func replayAll(data []byte) ([]record, error) {
	var recs []record
	err := replayJournal(data, func(rec record) { recs = append(recs, rec) })
	return recs, err
}

// encodeJournal frames recs behind a journal header, the way compact does.
func encodeJournal(t *testing.T, recs []record) []byte {
	t.Helper()
	buf := append([]byte(nil), journalMagic[:]...)
	buf = append(buf, journalVersion, 0, 0, 0)
	for _, rec := range recs {
		var err error
		if buf, err = appendFrame(buf, rec); err != nil {
			t.Fatalf("re-encoding recovered record %+v: %v", rec, err)
		}
	}
	return buf
}

// FuzzJournalReplay: the journal replay must never panic on arbitrary
// bytes; its allocation must stay bounded by its input whatever lengths
// the frames declare; and the records it recovers — from an intact
// journal or from the trusted prefix of a damaged one — must re-encode to
// a journal that replays cleanly to records that re-encode to the same
// bytes. The committed corpus holds a valid journal, one with a torn last
// frame and one with a CRC mismatch.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte("RCPNJRNL\x01\x00\x00\x00"))
	f.Add([]byte("RCPNJRNL\x01\x00\x00\x00\xff\xff\xff\xff\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, _ := replayAll(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > replayAllocSlack+16*uint64(len(data)) {
			t.Fatalf("replaying %d bytes allocated %d", len(data), grew)
		}
		canon := encodeJournal(t, recs)
		back, err := replayAll(canon)
		if err != nil {
			t.Fatalf("re-encoded journal does not replay: %v", err)
		}
		if len(back) != len(recs) {
			t.Fatalf("re-encoded journal replays %d records, want %d", len(back), len(recs))
		}
		for i := range recs {
			if back[i].Op != recs[i].Op || back[i].ID != recs[i].ID || back[i].Diag != recs[i].Diag {
				t.Fatalf("record %d: replayed %+v, want %+v", i, back[i], recs[i])
			}
		}
		if again := encodeJournal(t, back); !bytes.Equal(again, canon) {
			t.Fatalf("re-encoding is not a fixed point:\n%q\n%q", again, canon)
		}
	})
}
