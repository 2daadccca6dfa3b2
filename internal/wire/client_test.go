package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
)

// fakeServer accepts one connection and hands it to serve on a goroutine.
func fakeServer(t *testing.T, serve func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		serve(conn)
	}()
	return ln.Addr().String()
}

// TestClientServerCloseMidPipeline: the server answers one request of a
// pipelined batch and closes. The delivered response must still parse; the
// next read must fail rather than hang.
func TestClientServerCloseMidPipeline(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		r, w := NewReader(conn), NewWriter(conn)
		if err := r.ReadPreamble(); err != nil {
			t.Errorf("preamble: %v", err)
			return
		}
		if err := r.ReadRequest(&Request{}); err != nil {
			t.Errorf("request: %v", err)
			return
		}
		w.WriteResponse(&Response{Status: StatusMiss})
		w.Flush()
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := uint64(0); i < 3; i++ {
		if err := c.EnqueueGet(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var resp Response
	err = c.ReadResponse(&resp)
	if err != nil || resp.Status != StatusMiss {
		t.Fatalf("first pipelined response = %v, %v; want MISS", resp.Status, err)
	}
	if err := c.ReadResponse(&Response{}); err == nil {
		t.Fatal("read past server close succeeded; want error")
	}
}

// TestClientTruncatedResponse: a frame whose length prefix promises more
// bytes than the server delivers must produce a decode error, not garbage.
func TestClientTruncatedResponse(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		r := NewReader(conn)
		if err := r.ReadPreamble(); err != nil {
			return
		}
		if err := r.ReadRequest(&Request{}); err != nil {
			return
		}
		var ln [4]byte
		binary.LittleEndian.PutUint32(ln[:], 10)
		conn.Write(ln[:])
		conn.Write([]byte{byte(StatusHit), 'x', 'y'}) // 3 of 10 promised bytes
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Get(1); err == nil {
		t.Fatal("Get over a truncated response succeeded; want error")
	} else if !strings.Contains(err.Error(), "frame body") && err != io.ErrUnexpectedEOF && !strings.Contains(err.Error(), "unexpected EOF") {
		t.Fatalf("truncation error = %v; want a frame-body read failure", err)
	}
}

// TestVersionMismatch: a preamble with the wrong version must be rejected
// by the reader, and a server receiving one must drop the connection so
// the client sees an error instead of a hang.
func TestVersionMismatch(t *testing.T) {
	var pre bytes.Buffer
	pre.WriteString(Magic)
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], Version+41)
	pre.Write(v[:])
	err := NewReader(&pre).ReadPreamble()
	if err == nil || !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("ReadPreamble(version %d) = %v; want ErrVersionMismatch", Version+41, err)
	}

	var bad bytes.Buffer
	bad.WriteString("NOPE")
	bad.Write(v[:])
	if err := NewReader(&bad).ReadPreamble(); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("ReadPreamble(bad magic) = %v; want bad-magic error", err)
	}

	// End to end: a server that validates the preamble closes on mismatch
	// and the client's first read fails cleanly.
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		if err := NewReader(conn).ReadPreamble(); err == nil {
			t.Error("server accepted a mismatched preamble")
		}
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(append([]byte(Magic), v[:]...)); err != nil {
		t.Fatal(err)
	}
	r := NewReader(conn)
	if err := r.ReadResponse(&Response{}); err == nil {
		t.Fatal("read after mismatched preamble succeeded; want connection error")
	}
}

// TestClientKeysStream covers the chunked KEYS stream: the client must
// collect every chunk, stop at the terminator, and leave the connection
// usable for the next request.
func TestClientKeysStream(t *testing.T) {
	chunks := [][]KeyRec{
		{{Key: 1, Version: 10}, {Key: 2, Version: 20, Tombstone: true}, {Key: 3, Version: 30}},
		{{Key: 4, Version: 40}, {Key: 5, Version: 50}},
		{{Key: 6, Version: 60, Tombstone: true}},
	}
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		r, w := NewReader(conn), NewWriter(conn)
		if err := r.ReadPreamble(); err != nil {
			return
		}
		// First request: KEYS → three chunks + terminator, all epoch 9.
		if err := r.ReadRequest(&Request{}); err != nil {
			return
		}
		for _, c := range chunks {
			w.WriteResponse(&Response{Status: StatusKeys, Keys: c, Epoch: 9})
		}
		w.WriteResponse(&Response{Status: StatusKeys, Epoch: 9})
		w.Flush()
		// Second request: GET → MISS, proving the stream terminated cleanly.
		if err := r.ReadRequest(&Request{}); err != nil {
			return
		}
		w.WriteResponse(&Response{Status: StatusMiss, Epoch: 9})
		w.Flush()
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var got []KeyRec
	frames := 0
	if err := c.KeysStream(func(chunk []KeyRec) error {
		frames++
		got = append(got, chunk...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if frames != len(chunks) {
		t.Errorf("visited %d chunk frames, want %d", frames, len(chunks))
	}
	var want []KeyRec
	for _, c := range chunks {
		want = append(want, c...)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed records = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("streamed records = %v, want %v", got, want)
		}
	}
	if e := c.LastEpoch(); e != 9 {
		t.Errorf("LastEpoch = %d, want 9 (from the stream frames)", e)
	}
	if _, hit, err := c.Get(42); err != nil || hit {
		t.Fatalf("Get after KEYS stream = hit=%v, %v; connection should be clean", hit, err)
	}
}

// TestClientKeysStreamVisitError: a visit error must surface to the caller
// but the stream must still be drained to its terminator, leaving the
// connection synchronized for the next request.
func TestClientKeysStreamVisitError(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		r, w := NewReader(conn), NewWriter(conn)
		if err := r.ReadPreamble(); err != nil {
			return
		}
		if err := r.ReadRequest(&Request{}); err != nil {
			return
		}
		for _, c := range [][]KeyRec{{{Key: 1}, {Key: 2}}, {{Key: 3}, {Key: 4}}, {{Key: 5}}} {
			w.WriteResponse(&Response{Status: StatusKeys, Keys: c})
		}
		w.WriteResponse(&Response{Status: StatusKeys})
		w.Flush()
		if err := r.ReadRequest(&Request{}); err != nil {
			return
		}
		w.WriteResponse(&Response{Status: StatusMiss})
		w.Flush()
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	visits := 0
	boom := fmt.Errorf("abort after first chunk")
	if err := c.KeysStream(func([]KeyRec) error {
		visits++
		return boom
	}); err != boom {
		t.Fatalf("KeysStream = %v, want the visit error %v", err, boom)
	}
	if visits != 1 {
		t.Errorf("visit called %d times after erroring, want 1", visits)
	}
	if _, hit, err := c.Get(7); err != nil || hit {
		t.Fatalf("Get after aborted stream = hit=%v, %v; the stream must have been drained", hit, err)
	}
}

// TestClientMembersAndPush covers the MEMBERS fetch and TOPOLOGY push round
// trips.
func TestClientMembersAndPush(t *testing.T) {
	held := Topology{Epoch: 3, Members: []string{"a:1", "b:1"}}
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		r, w := NewReader(conn), NewWriter(conn)
		if err := r.ReadPreamble(); err != nil {
			return
		}
		for {
			var req Request
			err := r.ReadRequest(&req)
			if err != nil {
				return
			}
			switch req.Op {
			case OpMembers:
				w.WriteResponse(&Response{Status: StatusMembers, Epoch: held.Epoch, Topology: held})
			case OpTopology:
				if req.Topology.Epoch > held.Epoch {
					held = req.Topology
				}
				w.WriteResponse(&Response{Status: StatusMembers, Epoch: held.Epoch, Topology: held})
			}
			w.Flush()
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	got, err := c.Members()
	if err != nil || got.Epoch != 3 || len(got.Members) != 2 {
		t.Fatalf("Members() = %+v, %v", got, err)
	}
	// A stale push loses: the server's newer view comes back.
	after, err := c.PushTopology(Topology{Epoch: 2, Members: []string{"z:1"}})
	if err != nil || after.Epoch != 3 {
		t.Fatalf("stale push returned %+v, %v; want the held epoch-3 view", after, err)
	}
	// A newer push wins.
	after, err = c.PushTopology(Topology{Epoch: 4, Members: []string{"a:1", "b:1", "c:1"}})
	if err != nil || after.Epoch != 4 || len(after.Members) != 3 {
		t.Fatalf("newer push returned %+v, %v; want it adopted", after, err)
	}
}

// TestKeysRoundTrip covers the KEYS frames the cluster migration relies on.
func TestKeysRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := []KeyRec{
		{Key: 1, Version: 7},
		{Key: 1 << 40, Version: 1 << 50, Tombstone: true},
		{Key: 42, Version: 3},
	}
	if err := w.WriteResponse(&Response{Status: StatusKeys, Keys: want}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteResponse(&Response{Status: StatusKeys}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	var resp Response
	err := r.ReadResponse(&resp)
	if err != nil || resp.Status != StatusKeys {
		t.Fatalf("ReadResponse = %v, %v", resp.Status, err)
	}
	if len(resp.Keys) != len(want) {
		t.Fatalf("keys = %v, want %v", resp.Keys, want)
	}
	for i := range want {
		if resp.Keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", resp.Keys, want)
		}
	}
	err = r.ReadResponse(&resp)
	if err != nil || resp.Status != StatusKeys || len(resp.Keys) != 0 {
		t.Fatalf("empty KEYS = %v (%d keys), %v", resp.Status, len(resp.Keys), err)
	}
}
