package loadgen

import (
	"bytes"
	"runtime"
	"testing"
)

// parseAllocSlack is what ParseReport may allocate beyond a small
// multiple of its input: the Report itself, the decoder's state and
// whatever the test runtime allocates in the background.
const parseAllocSlack = 64 << 10

// FuzzParseReport: ParseReport must never panic on arbitrary bytes; its
// allocation must stay bounded by its input; and the canonical bytes of
// any report it accepts must be a fixed point — they parse again, to a
// report whose canonical bytes are the same. The committed corpus holds a
// complete report of a small load run and one that breaks the counter
// partition.
func FuzzParseReport(f *testing.F) {
	f.Add([]byte(`{"schema":"rcpn-load/v1","submitted":1}`))
	f.Add([]byte(`{"schema":"rcpn-load/v1","latency":{"p50_ms":1e308},"arrival":"\ud800"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := ParseReport(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > parseAllocSlack+16*uint64(len(data)) {
			t.Fatalf("parsing %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		canon := r.JSON()
		back, err := ParseReport(canon)
		if err != nil {
			t.Fatalf("canonical bytes of an accepted report do not parse: %v\n%s", err, canon)
		}
		if again := back.JSON(); !bytes.Equal(again, canon) {
			t.Fatalf("JSON(ParseReport(JSON(r))) != JSON(r):\n%s\n%s", again, canon)
		}
	})
}
