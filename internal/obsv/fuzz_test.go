package obsv

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"
)

// readAllocSlack is what ReadBinary may allocate beyond a small multiple
// of its input: the tracer, the bufio buffer, the first reservation of
// each table, one name of up to 64 KiB (each is allocated only once the
// previous one has arrived in full) and whatever the test runtime
// allocates in the background. A 28-byte header declaring a million
// events is far above it.
const readAllocSlack = 128 << 10

// FuzzReadBinary: ReadBinary must never panic on arbitrary bytes; its
// allocation must stay bounded by its input, whatever counts the header
// declares; and any input it accepts must be exactly what WriteBinary
// writes for the trace it returns. The committed corpus holds an empty
// trace and a short pipeline trace with name tables.
func FuzzReadBinary(f *testing.F) {
	// Hostile counts behind a valid magic and drop count: a million
	// events after empty name tables (28 bytes in all), and a million
	// location names.
	le := binary.LittleEndian
	hdr := append([]byte(binaryMagic), make([]byte, 8)...)
	f.Add(le.AppendUint32(le.AppendUint32(le.AppendUint32(slices.Clone(hdr), 0), 0), 1<<20))
	f.Add(le.AppendUint32(slices.Clone(hdr), 1<<20))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := ReadBinary(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > readAllocSlack+8*uint64(len(data)) {
			t.Fatalf("reading %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("WriteBinary(ReadBinary(x)) != x:\n%x\n%x", buf.Bytes(), data)
		}
	})
}
