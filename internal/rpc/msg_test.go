package rpc

import (
	"bytes"
	"encoding/binary"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"rcpn/internal/faultinj"
)

// TestMsgRoundTrip: every message type survives Encode → DecodeMsg.
func TestMsgRoundTrip(t *testing.T) {
	msgs := []Msg{
		Hello{Version: 1, Node: "worker-3", Slots: 4},
		Hello{Version: 1},
		Submit{ID: "deadbeef", Spec: []byte(`{"simulator":"pipe5","kernel":"fib"}`)},
		Submit{ID: ""},
		Progress{ID: "deadbeef", Cycles: 1 << 40, Instret: 1 << 50},
		Progress{ID: "x", Cycles: -1},
		Result{ID: "deadbeef", Cycles: 123, Instret: 456,
			Payload: []byte(`{"schema":"rcpn-batch/v1"}`), Trace: []byte("[]")},
		Result{ID: "f", Failed: true, Payload: []byte("diag")},
		JobError{ID: "deadbeef", Msg: "worker overloaded", Transient: true},
		JobError{ID: "d", Msg: "bad spec"},
		Ping{Seq: 0},
		Ping{Seq: 1<<64 - 1},
		Pong{Seq: 42},
	}
	for _, m := range msgs {
		got, err := DecodeMsg(Encode(m))
		if err != nil {
			t.Fatalf("%#v: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round-trip: got %#v, want %#v", got, m)
		}
	}
}

// TestDecodeMsgRejects: unknown kinds, truncated fields, out-of-range
// bools and trailing garbage are all errors.
func TestDecodeMsgRejects(t *testing.T) {
	cases := map[string][]byte{
		"empty":           {},
		"unknown kind":    {99},
		"truncated hello": Encode(Hello{Version: 1, Node: "n", Slots: 2})[:3],
		"bad bool":        append(Encode(JobError{ID: "i", Msg: "m"})[:len(Encode(JobError{ID: "i", Msg: "m"}))-1], 7),
		"trailing bytes":  append(Encode(Ping{Seq: 9}), 0xEE),
		"string overrun":  {kindSubmit, 0x20, 'a', 'b'}, // claims 32-byte ID, has 2
	}
	for name, payload := range cases {
		if m, err := DecodeMsg(payload); err == nil {
			t.Errorf("%s: decoded to %#v, want error", name, m)
		}
	}
}

// tcpPair builds a connected loopback TCP pair. The handshake is
// symmetric (both sides write before reading), which needs a buffered
// transport — net.Pipe would deadlock, TCP is what production uses.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type acc struct {
		c   net.Conn
		err error
	}
	accc := make(chan acc, 1)
	go func() {
		c, err := ln.Accept()
		accc <- acc{c, err}
	}()
	ca, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	got := <-accc
	if got.err != nil {
		ca.Close()
		t.Fatal(got.err)
	}
	return ca, got.c
}

// TestConnLoopback: handshake and message exchange over loopback TCP,
// plus the two rpc.drop failure modes — a dropped frame never arrives, a
// corrupted frame kills the receiver with a CRC error.
func TestConnLoopback(t *testing.T) {
	dial := func(t *testing.T, inj *faultinj.Injector) (*Conn, *Conn) {
		t.Helper()
		ca, cb := tcpPair(t)
		a, b := NewConn(ca, inj), NewConn(cb, nil)
		t.Cleanup(func() { a.Close(); b.Close() })
		errc := make(chan error, 1)
		go func() {
			_, err := b.Handshake(Hello{Version: Version}, time.Second)
			errc <- err
		}()
		peer, err := a.Handshake(Hello{Version: Version, Node: "w0", Slots: 2}, time.Second)
		if err != nil {
			t.Fatalf("handshake: %v", err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("peer handshake: %v", err)
		}
		if peer.Version != Version {
			t.Fatalf("peer hello = %+v", peer)
		}
		return a, b
	}

	t.Run("exchange", func(t *testing.T) {
		a, b := dial(t, nil)
		go a.Send(Submit{ID: "j1", Spec: []byte("spec")}) //nolint:errcheck
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if sub, ok := m.(Submit); !ok || sub.ID != "j1" || !bytes.Equal(sub.Spec, []byte("spec")) {
			t.Fatalf("got %#v", m)
		}
	})

	t.Run("drop", func(t *testing.T) {
		inj, err := faultinj.Parse(faultinj.SiteRPCDrop + "#1:error")
		if err != nil {
			t.Fatal(err)
		}
		a, b := dial(t, inj)
		// First send is swallowed; second gets through.
		if err := a.Send(Ping{Seq: 1}); err != nil {
			t.Fatalf("dropped send returned %v", err)
		}
		go a.Send(Ping{Seq: 2}) //nolint:errcheck
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if p, ok := m.(Ping); !ok || p.Seq != 2 {
			t.Fatalf("got %#v, want the second ping only", m)
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		inj, err := faultinj.Parse(faultinj.SiteRPCDrop + "#1:corrupt")
		if err != nil {
			t.Fatal(err)
		}
		a, b := dial(t, inj)
		go a.Send(Result{ID: "j1", Payload: bytes.Repeat([]byte("x"), 256)}) //nolint:errcheck
		if m, err := b.Recv(); err == nil {
			t.Fatalf("corrupted frame decoded to %#v", m)
		}
	})

	t.Run("version mismatch", func(t *testing.T) {
		ca, cb := tcpPair(t)
		defer ca.Close()
		defer cb.Close()
		a, b := NewConn(ca, nil), NewConn(cb, nil)
		go a.Handshake(Hello{Version: Version + 1}, time.Second) //nolint:errcheck
		if _, err := b.Handshake(Hello{Version: Version}, time.Second); err == nil {
			t.Fatal("version mismatch accepted")
		}
	})

	t.Run("read timeout", func(t *testing.T) {
		a, _ := dial(t, nil)
		a.ReadTimeout = 20 * time.Millisecond
		start := time.Now()
		if _, err := a.Recv(); err == nil {
			t.Fatal("Recv on quiet conn succeeded")
		}
		if time.Since(start) > 2*time.Second {
			t.Fatal("read deadline not applied")
		}
	})
}

// decodeAllocSlack is what DecodeMsg may allocate beyond a small multiple
// of its input: the message value itself plus whatever the test runtime
// allocates in the background. A hostile length prefix claiming even a
// megabyte from a few bytes of input is far above it.
const decodeAllocSlack = 64 << 10

// FuzzDecodeMsg: DecodeMsg must never panic on arbitrary payload bytes;
// it must reject a declared field length before allocating for it, so its
// allocation stays bounded by its input; and any payload it accepts must
// re-encode to a fixed point — Encode of the decoded message decodes to
// the same message, which encodes to the same bytes again. The committed
// corpus holds one encoded payload of every message kind.
func FuzzDecodeMsg(f *testing.F) {
	// Hostile lengths: a Submit whose ID claims a megabyte, a Result whose
	// payload claims the largest uvarint.
	f.Add(binary.AppendUvarint([]byte{kindSubmit}, 1<<20))
	f.Add(binary.AppendUvarint([]byte{kindResult, 1, 'x', 0, 0, 0}, 1<<64-1))

	f.Fuzz(func(t *testing.T, payload []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := DecodeMsg(payload)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > decodeAllocSlack+4*uint64(len(payload)) {
			t.Fatalf("decoding %d bytes allocated %d", len(payload), grew)
		}
		if err != nil {
			return
		}
		enc := Encode(m)
		again, err := DecodeMsg(enc)
		if err != nil {
			t.Fatalf("re-encoded %#v does not decode: %v", m, err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("decode(encode(m)) = %#v, want %#v", again, m)
		}
		if re := Encode(again); !bytes.Equal(re, enc) {
			t.Fatalf("encoding is not a fixed point: %x then %x", enc, re)
		}
	})
}
