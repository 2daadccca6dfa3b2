package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// testTraceID builds a distinct nonzero trace ID for tests.
func testTraceID(b byte) (id telemetry.TraceID) {
	id[0] = b
	id[15] = ^b
	return id
}

// roundTripRequests is one request of every shape TestRequestRoundTrip
// pins; the fuzz targets seed from it too.
var roundTripRequests = []Request{
	{Op: OpGet, Key: 42},
	{Op: OpSet, Key: 7, Value: []byte("hello world")},
	{Op: OpSet, Key: 8, Value: nil},                                                   // empty value is legal
	{Op: OpSet, Key: 9, Flags: SetFlagRepair, Value: []byte("repair")},                // flagged maintenance write
	{Op: OpSet, Key: 10, Flags: SetFlagRepair | SetFlagAsync, Value: []byte("async")}, // queued maintenance write
	{Op: OpSet, Key: 11, Flags: SetFlagRepair | SetFlagVersioned, Version: 1 << 50, Value: []byte("conditional")},
	{Op: OpSet, Key: 12, Flags: SetFlagRepair | SetFlagAsync | SetFlagVersioned, Version: 7, Value: nil},
	{Op: OpDel, Key: 1 << 60},
	{Op: OpStats, Detail: true},
	{Op: OpStats, Detail: false},
	{Op: OpRehash},
	{Op: OpMembers},
	{Op: OpTopology, Topology: Topology{Epoch: 7, Members: []string{"a:1", "b:2"}}},
	// v6 traced requests: context rides between the opcode byte and the
	// op fields, sampled or not, on reads and maintenance writes alike.
	{Op: OpGet, Key: 42, Traced: true, Trace: TraceContext{ID: testTraceID(1), Flags: TraceFlagSampled}},
	{Op: OpGet, Key: 43, Traced: true, Trace: TraceContext{ID: testTraceID(2)}}, // propagated, unsampled
	{Op: OpSet, Key: 44, Value: []byte("traced"), Traced: true, Trace: TraceContext{ID: testTraceID(3), Flags: TraceFlagSampled}},
	{Op: OpSet, Key: 45, Flags: SetFlagRepair | SetFlagAsync | SetFlagVersioned, Version: 9,
		Value: []byte("traced repair"), Traced: true, Trace: TraceContext{ID: testTraceID(4), Flags: TraceFlagSampled}},
	{Op: OpDel, Key: 46, Traced: true, Trace: TraceContext{ID: testTraceID(5), Flags: TraceFlagSampled}},
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := roundTripRequests
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, req := range reqs {
		if err := w.WriteRequest(req); err != nil {
			t.Fatalf("write %v: %v", req.Op, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i, want := range reqs {
		var got Request
		err := r.ReadRequest(&got)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got.Op != want.Op || got.Key != want.Key || got.Detail != want.Detail || got.Flags != want.Flags || got.Version != want.Version {
			t.Fatalf("request %d = %+v, want %+v", i, got, want)
		}
		if got.Traced != want.Traced || got.Trace != want.Trace {
			t.Fatalf("request %d trace = %v/%+v, want %v/%+v", i, got.Traced, got.Trace, want.Traced, want.Trace)
		}
		if !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("request %d value = %q, want %q", i, got.Value, want.Value)
		}
		if !reflect.DeepEqual(got.Topology.Members, want.Topology.Members) || got.Topology.Epoch != want.Topology.Epoch {
			t.Fatalf("request %d topology = %+v, want %+v", i, got.Topology, want.Topology)
		}
	}
	if err := r.ReadRequest(&Request{}); err == nil {
		t.Fatal("expected EOF after last request")
	}
}

// roundTripStats is a STATS payload with every section populated.
var roundTripStats = &Stats{
	Hits: 10, Misses: 3, Evictions: 2, ConflictEvictions: 1, FlushEvictions: 5,
	Rehashes: 1, Pending: 7, Len: 90, Capacity: 128, Alpha: 8, Buckets: 16,
	RepairQueueDepth: 12, RepairsShed: 2,
	Migrating: true,
	Shards: []ShardStat{
		{Hits: 4, Misses: 1, Evictions: 1, Len: 8},
		{Hits: 6, Misses: 2, Evictions: 1, Len: 7},
	},
}

// roundTripResponses is one response of every shape
// TestResponseRoundTrip pins; the fuzz targets seed from it too.
var roundTripResponses = []Response{
	{Status: StatusHit, Epoch: 5, Value: []byte("payload")},
	{Status: StatusHit, Epoch: 5, Version: 1 << 40, Value: []byte("versioned payload")},
	{Status: StatusMiss, Epoch: 1 << 50},
	{Status: StatusOK, Evicted: true},
	{Status: StatusOK, Evicted: false, Epoch: 9},
	{Status: StatusOK, Evicted: true, Epoch: 9, Version: 12345},
	{Status: StatusVersionStale, Epoch: 2, Version: 1 << 41},
	{Status: StatusStats, Stats: roundTripStats, Epoch: 3},
	{Status: StatusStats, Stats: &Stats{Capacity: 64}}, // no shards
	{Status: StatusError, Err: "boom", Epoch: 4},
	{Status: StatusMembers, Epoch: 7, Topology: Topology{Epoch: 7, Members: []string{"n1:7070", "n2:7070"}}},
}

func TestResponseRoundTrip(t *testing.T) {
	resps := roundTripResponses
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, resp := range resps {
		if err := w.WriteResponse(&resp); err != nil {
			t.Fatalf("write %v: %v", resp.Status, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i, want := range resps {
		var got Response
		err := r.ReadResponse(&got)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got.Status != want.Status || got.Evicted != want.Evicted || got.Err != want.Err || got.Epoch != want.Epoch || got.Version != want.Version {
			t.Fatalf("response %d = %+v, want %+v", i, got, want)
		}
		if !reflect.DeepEqual(got.Topology.Members, want.Topology.Members) || got.Topology.Epoch != want.Topology.Epoch {
			t.Fatalf("response %d topology = %+v, want %+v", i, got.Topology, want.Topology)
		}
		if !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("response %d value = %q, want %q", i, got.Value, want.Value)
		}
		if want.Stats != nil {
			if got.Stats == nil {
				t.Fatalf("response %d missing stats", i)
			}
			if !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Fatalf("response %d stats = %+v, want %+v", i, got.Stats, want.Stats)
			}
		}
	}
}

func TestPreamble(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePreamble(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := NewReader(&buf).ReadPreamble(); err != nil {
		t.Fatalf("good preamble rejected: %v", err)
	}

	if err := NewReader(strings.NewReader("XXXX\x01\x00\x00\x00")).ReadPreamble(); err == nil {
		t.Fatal("bad magic accepted")
	}
	if err := NewReader(strings.NewReader(Magic + "\x99\x00\x00\x00")).ReadPreamble(); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame+1)
	r := NewReader(bytes.NewReader(hdr[:]))
	if err := r.ReadRequest(&Request{}); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestMalformedRequestRejected(t *testing.T) {
	frame := func(body []byte) *Reader {
		var buf bytes.Buffer
		var ln [4]byte
		binary.LittleEndian.PutUint32(ln[:], uint32(len(body)))
		buf.Write(ln[:])
		buf.Write(body)
		return NewReader(&buf)
	}
	// A GET with a 3-byte key must be rejected.
	if err := frame([]byte{byte(OpGet), 1, 2, 3}).ReadRequest(&Request{}); err == nil {
		t.Fatal("short GET accepted")
	}
	// A SET without a flags byte (the version-1 layout) must be rejected.
	if err := frame(append([]byte{byte(OpSet)}, make([]byte, 8)...)).ReadRequest(&Request{}); err == nil {
		t.Fatal("flagless SET accepted")
	}
	// A SET with undefined flag bits must be rejected.
	body := append([]byte{byte(OpSet)}, make([]byte, 8)...)
	body = append(body, 0x80, 'v')
	if err := frame(body).ReadRequest(&Request{}); err == nil {
		t.Fatal("SET with undefined flag bits accepted")
	}
	// ASYNC is only defined together with REPAIR.
	body = append([]byte{byte(OpSet)}, make([]byte, 8)...)
	body = append(body, byte(SetFlagAsync), 'v')
	if err := frame(body).ReadRequest(&Request{}); err == nil {
		t.Fatal("SET with ASYNC but not REPAIR accepted")
	}
	// VERSIONED is only defined together with REPAIR: user SETs must stay
	// unconditional, so a conditional user write is a protocol error.
	body = append([]byte{byte(OpSet)}, make([]byte, 8)...)
	body = append(body, byte(SetFlagVersioned))
	body = append(body, make([]byte, 8)...) // version
	body = append(body, 'v')
	if err := frame(body).ReadRequest(&Request{}); err == nil {
		t.Fatal("SET with VERSIONED but not REPAIR accepted")
	}
	// A VERSIONED SET whose body ends before the version field.
	body = append([]byte{byte(OpSet)}, make([]byte, 8)...)
	body = append(body, byte(SetFlagRepair|SetFlagVersioned), 1, 2, 3)
	if err := frame(body).ReadRequest(&Request{}); err == nil {
		t.Fatal("VERSIONED SET with a truncated version field accepted")
	}
	// A traced frame whose body ends inside the trace context.
	body = []byte{byte(OpGet) | OpFlagTraced, 1, 2, 3}
	if err := frame(body).ReadRequest(&Request{}); err == nil {
		t.Fatal("traced GET with a truncated trace context accepted")
	}
	// A trace context with a zero trace ID is a bug, not a frame.
	body = append([]byte{byte(OpGet) | OpFlagTraced}, make([]byte, TraceContextLen)...)
	body = append(body, make([]byte, 8)...) // key
	if err := frame(body).ReadRequest(&Request{}); err == nil {
		t.Fatal("traced GET with a zero trace ID accepted")
	}
	// Undefined trace-flag bits must be rejected.
	body = append([]byte{byte(OpGet) | OpFlagTraced}, 0xAB)
	body = append(body, make([]byte, 15)...) // rest of the ID
	body = append(body, 0x80)                // undefined trace flag bit
	body = append(body, make([]byte, 8)...)  // key
	if err := frame(body).ReadRequest(&Request{}); err == nil {
		t.Fatal("trace context with undefined flag bits accepted")
	}
	// The encoder refuses the same two.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRequest(Request{Op: OpGet, Traced: true}); err == nil {
		t.Fatal("encoder accepted a zero trace ID")
	}
	if err := w.WriteRequest(Request{Op: OpGet, Traced: true, Trace: TraceContext{ID: testTraceID(1), Flags: 0x80}}); err == nil {
		t.Fatal("encoder accepted undefined trace flag bits")
	}
}

// TestTopologyValidate pins the payload sanity rules shared by encoder and
// decoder.
func TestTopologyValidate(t *testing.T) {
	long := strings.Repeat("x", MaxAddrLen+1)
	many := make([]string, MaxMembers+1)
	for i := range many {
		many[i] = fmt.Sprintf("n%d", i)
	}
	cases := []struct {
		name string
		t    Topology
		ok   bool
	}{
		{"empty", Topology{}, true},
		{"normal", Topology{Epoch: 3, Members: []string{"a:1", "b:1"}}, true},
		{"dup", Topology{Members: []string{"a:1", "a:1"}}, false},
		{"empty addr", Topology{Members: []string{""}}, false},
		{"oversize addr", Topology{Members: []string{long}}, false},
		{"too many", Topology{Members: many}, false},
	}
	for _, c := range cases {
		if err := c.t.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	// A malformed payload must fail to decode, not panic or alias garbage:
	// claim 2 members but deliver bytes for half of one.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteResponse(&Response{Status: StatusMembers, Topology: Topology{Epoch: 1, Members: []string{"abc"}}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Frame body layout: len(4) status(1) epoch(8) tEpoch(8) count(4)...;
	// bump the member count to 2 without adding bytes.
	binary.LittleEndian.PutUint32(raw[4+1+8+8:], 2)
	if err := NewReader(bytes.NewReader(raw)).ReadResponse(&Response{}); err == nil {
		t.Fatal("truncated topology payload accepted")
	}
}
