package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"testing/iotest"
	"time"
)

// Run the targets beyond their seeds with, e.g.,
//
//	go test -run '^$' -fuzz '^FuzzReadRequest$' -fuzztime 10s ./internal/wire
//
// Each input is a raw stream; the targets decode its first frame. Three
// properties must hold for every input:
//
//   - decoding never panics;
//   - a frame that decodes re-encodes to bytes that decode to the same
//     value (the decoder accepts nothing the encoder would refuse);
//   - the same stream delivered one byte per Read decodes identically,
//     error included, so no decode depends on how the bytes were split.

// seedRequests is the fuzz corpus for FuzzReadRequest: every shape
// TestRequestRoundTrip pins, plus the opcodes and SET flags that later
// protocol revisions added (ARCHITECTURE.md's request table).
func seedRequests() []Request {
	return append(append([]Request(nil), roundTripRequests...),
		Request{Op: OpGetLease, Key: 5},
		Request{Op: OpSet, Key: 7, Flags: SetFlagLease, LeaseToken: 3, Value: []byte("fill")},
		Request{Op: OpSet, Key: 8, Flags: SetFlagRepair | SetFlagVersioned | SetFlagTombstone, Version: 4},
		Request{Op: OpHint, Target: "n1:7070", Key: 9, Version: 11, Value: []byte("hinted")},
		Request{Op: OpHint, Target: "n2:7070", Key: 10, Tombstone: true, Version: 12},
		Request{Op: OpKeys},
		Request{Op: OpMetrics, MetricsFlags: MetricsAll},
	)
}

// seedResponses is the fuzz corpus for FuzzReadResponse: every shape
// TestResponseRoundTrip pins, plus the statuses later revisions added.
func seedResponses() []Response {
	return append(append([]Response(nil), roundTripResponses...),
		Response{Status: StatusLease, Epoch: 3, LeaseToken: 99, LeaseTTL: 2 * time.Second},
		Response{Status: StatusLease, Epoch: 4, LeaseTTL: time.Second, Stale: true, Version: 7, Value: []byte("stale")},
		Response{Status: StatusLeaseLost, Epoch: 5, Version: 1 << 41},
		Response{Status: StatusKeys, Epoch: 1, Keys: []KeyRec{{Key: 1, Version: 2}, {Key: 3, Version: 4, Tombstone: true}}},
		Response{Status: StatusKeys, Epoch: 1},
		Response{Status: StatusMetrics, Epoch: 2, Metrics: sampleMetrics()},
	)
}

// encodeRequest returns req as one framed byte stream.
func encodeRequest(req Request) ([]byte, error) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRequest(req); err != nil {
		return nil, err
	}
	err := w.Flush()
	return buf.Bytes(), err
}

// encodeResponse returns resp as one framed byte stream.
func encodeResponse(resp *Response) ([]byte, error) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteResponse(resp); err != nil {
		return nil, err
	}
	err := w.Flush()
	return buf.Bytes(), err
}

// sameRequest reports whether two decoded requests carry the same value;
// Value compares by content, so nil and empty are equal.
func sameRequest(a, b Request) bool {
	if !bytes.Equal(a.Value, b.Value) {
		return false
	}
	a.Value, b.Value = nil, nil
	return reflect.DeepEqual(a, b)
}

// sameResponse is sameRequest for responses.
func sameResponse(a, b Response) bool {
	if !bytes.Equal(a.Value, b.Value) {
		return false
	}
	a.Value, b.Value = nil, nil
	return reflect.DeepEqual(a, b)
}

func FuzzReadRequest(f *testing.F) {
	for _, req := range seedRequests() {
		b, err := encodeRequest(req)
		if err != nil {
			f.Fatalf("seed %+v: %v", req, err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Request
		err := NewReader(bytes.NewReader(data)).ReadRequest(&got)

		var slow Request
		slowErr := NewReader(iotest.OneByteReader(bytes.NewReader(data))).ReadRequest(&slow)
		if fmt.Sprint(err) != fmt.Sprint(slowErr) {
			t.Fatalf("one byte per read: error %v, whole stream: %v", slowErr, err)
		}
		if err != nil {
			return
		}
		if !sameRequest(got, slow) {
			t.Fatalf("one byte per read decoded %+v, whole stream %+v", slow, got)
		}

		enc, err := encodeRequest(got)
		if err != nil {
			t.Fatalf("decoded %+v but re-encoding failed: %v", got, err)
		}
		var again Request
		if err := NewReader(bytes.NewReader(enc)).ReadRequest(&again); err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", got, err)
		}
		if !sameRequest(got, again) {
			t.Fatalf("re-encoded request decoded to %+v, want %+v", again, got)
		}
	})
}

func FuzzReadResponse(f *testing.F) {
	for _, resp := range seedResponses() {
		b, err := encodeResponse(&resp)
		if err != nil {
			f.Fatalf("seed %+v: %v", resp, err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Response
		err := NewReader(bytes.NewReader(data)).ReadResponse(&got)

		var slow Response
		slowErr := NewReader(iotest.OneByteReader(bytes.NewReader(data))).ReadResponse(&slow)
		if fmt.Sprint(err) != fmt.Sprint(slowErr) {
			t.Fatalf("one byte per read: error %v, whole stream: %v", slowErr, err)
		}
		if err != nil {
			return
		}
		if !sameResponse(got, slow) {
			t.Fatalf("one byte per read decoded %+v, whole stream %+v", slow, got)
		}

		enc, err := encodeResponse(&got)
		if err != nil {
			t.Fatalf("decoded %+v but re-encoding failed: %v", got, err)
		}
		var again Response
		if err := NewReader(bytes.NewReader(enc)).ReadResponse(&again); err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", got, err)
		}
		if !sameResponse(got, again) {
			t.Fatalf("re-encoded response decoded to %+v, want %+v", again, got)
		}
	})
}
