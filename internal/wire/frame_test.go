package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
)

// frameItem is one frame of a mixed stream: a request or a response.
type frameItem struct {
	req  *Request
	resp *Response
}

// frameLen is the framed size of an item: length prefix plus body.
func frameLen(t *testing.T, it frameItem) int {
	t.Helper()
	var b []byte
	var err error
	if it.req != nil {
		b, err = encodeRequest(*it.req)
	} else {
		b, err = encodeResponse(it.resp)
	}
	if err != nil {
		t.Fatal(err)
	}
	return len(b)
}

// boundaryStream builds frames whose framed size sits at the edges of a
// stream buffer of the given size — size−5, −4, −3, exactly, +1 and ×2 —
// as SETs and HITs, alongside GETs, HITs carrying 0 B / 100 B / 4 KiB /
// 8 KiB values, and a KEYS chunk.
func boundaryStream(t *testing.T, size int) []frameItem {
	t.Helper()
	val := func(n int) []byte {
		v := make([]byte, n)
		for i := range v {
			v[i] = byte(i*31 + n)
		}
		return v
	}
	// Framed SET = 4 + op 1 + key 8 + flags 1 + value; framed HIT = 4 +
	// status 1 + epoch 8 + version 8 + value.
	const setOver, hitOver = 14, 21
	var items []frameItem
	key := uint64(1)
	for _, total := range []int{size - 5, size - 4, size - 3, size, size + 1, 2 * size} {
		key++
		items = append(items,
			frameItem{req: &Request{Op: OpSet, Key: key, Value: val(total - setOver)}},
			frameItem{req: &Request{Op: OpGet, Key: key}},
			frameItem{resp: &Response{Status: StatusHit, Epoch: 3, Version: key, Value: val(total - hitOver)}},
		)
	}
	for _, n := range []int{0, 100, 4 << 10, 8 << 10} {
		key++
		items = append(items,
			frameItem{req: &Request{Op: OpGet, Key: key}},
			frameItem{resp: &Response{Status: StatusHit, Epoch: 3, Version: key, Value: val(n)}},
			frameItem{req: &Request{Op: OpSet, Key: key, Value: val(n)}},
		)
	}
	keys := make([]KeyRec, 1000)
	for i := range keys {
		keys[i] = KeyRec{Key: uint64(i), Version: uint64(i) << 20, Tombstone: i%7 == 0}
	}
	items = append(items,
		frameItem{req: &Request{Op: OpKeys}},
		frameItem{resp: &Response{Status: StatusKeys, Epoch: 3, Keys: keys}},
		frameItem{resp: &Response{Status: StatusKeys, Epoch: 3}},
	)
	// The edge sizes above are only edges if the layout arithmetic holds.
	for i, total := range []int{size - 5, size - 4, size - 3, size, size + 1, 2 * size} {
		if got := frameLen(t, items[3*i]); got != total {
			t.Fatalf("SET frame %d is %d bytes, want %d", i, got, total)
		}
		if got := frameLen(t, items[3*i+2]); got != total {
			t.Fatalf("HIT frame %d is %d bytes, want %d", i, got, total)
		}
	}
	return items
}

// TestReaderFrameBoundaries decodes a stream of frames sized around the
// stream buffer — the edge between decoding in place and copying into
// the body buffer — through a whole-stream reader, a one-byte-per-Read
// reader and a half-read reader, with the client's default 4 KiB buffer
// and the server's 64 KiB one. Every frame must decode to what was
// written, however the bytes arrive.
func TestReaderFrameBoundaries(t *testing.T) {
	for _, size := range []int{4 << 10, 64 << 10} {
		items := boundaryStream(t, size)
		var stream bytes.Buffer
		w := NewWriter(&stream)
		for _, it := range items {
			var err error
			if it.req != nil {
				err = w.WriteRequest(*it.req)
			} else {
				err = w.WriteResponse(it.resp)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		raw := stream.Bytes()
		for _, src := range []struct {
			name string
			wrap func(io.Reader) io.Reader
		}{
			{"whole", func(r io.Reader) io.Reader { return r }},
			{"one-byte", iotest.OneByteReader},
			{"half", iotest.HalfReader},
		} {
			r := NewReaderSize(src.wrap(bytes.NewReader(raw)), size)
			if r.br.Size() != size {
				t.Fatalf("stream buffer %d, want %d", r.br.Size(), size)
			}
			var (
				req  Request
				resp Response
			)
			for i, it := range items {
				if it.req != nil {
					if err := r.ReadRequest(&req); err != nil {
						t.Fatalf("buf %d, %s: frame %d: %v", size, src.name, i, err)
					}
					if !sameRequest(req, *it.req) {
						t.Fatalf("buf %d, %s: frame %d decoded %v key %d len %d, want %v key %d len %d",
							size, src.name, i, req.Op, req.Key, len(req.Value), it.req.Op, it.req.Key, len(it.req.Value))
					}
					continue
				}
				if err := r.ReadResponse(&resp); err != nil {
					t.Fatalf("buf %d, %s: frame %d: %v", size, src.name, i, err)
				}
				if !sameResponse(resp, *it.resp) {
					t.Fatalf("buf %d, %s: frame %d decoded %v version %d len %d keys %d, want %v version %d len %d keys %d",
						size, src.name, i, resp.Status, resp.Version, len(resp.Value), len(resp.Keys),
						it.resp.Status, it.resp.Version, len(it.resp.Value), len(it.resp.Keys))
				}
			}
			if err := r.ReadRequest(&req); err != io.EOF {
				t.Fatalf("buf %d, %s: after the last frame: %v, want io.EOF", size, src.name, err)
			}
		}
	}
}

// TestLargeFrameAllocationBounded: a length prefix is a claim, not a
// delivery. A header announcing a MaxFrame body followed by 16 bytes and
// EOF must fail after allocating in proportion to what arrived, not the
// 16 MiB the header claimed; frames that do arrive whole still decode.
func TestLargeFrameAllocationBounded(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame)
	lying := append(hdr[:], make([]byte, 16)...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := NewReader(bytes.NewReader(lying)).ReadRequest(&Request{})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated MaxFrame frame decoded")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("a MaxFrame header over 16 bytes allocated %d bytes, want < 1 MiB", d)
	}

	for _, n := range []int{8 << 10, 1 << 20} {
		want := Request{Op: OpSet, Key: uint64(n), Value: bytes.Repeat([]byte{0xA5}, n)}
		b, err := encodeRequest(want)
		if err != nil {
			t.Fatal(err)
		}
		var got Request
		if err := NewReader(bytes.NewReader(b)).ReadRequest(&got); err != nil {
			t.Fatalf("%d-byte SET: %v", n, err)
		}
		if !sameRequest(got, want) {
			t.Fatalf("%d-byte SET decoded key %d len %d", n, got.Key, len(got.Value))
		}
	}
}
