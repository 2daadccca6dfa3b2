// Package wire defines the compact binary protocol spoken between the
// cached server (internal/server, cmd/cached) and its clients
// (cmd/cacheload, the cluster router in internal/cluster, and the load
// harness in internal/load). The authoritative byte-level specification
// lives in ARCHITECTURE.md at the repository root; a spec test
// (spec_test.go) keeps that document and this package in lockstep.
//
// The protocol is deliberately in the same spirit as the SATR trace format:
// little-endian, versioned, and trivially parseable. A connection begins
// with a 8-byte client preamble:
//
//	magic   [4]byte  "SACW" (Set-Associative Cache Wire)
//	version uint32   8
//
// after which both directions carry length-prefixed frames:
//
//	length  uint32   body length in bytes (≤ MaxFrame)
//	body    length × byte
//
// A request body is an opcode byte followed by opcode-specific fields; the
// opcode byte's high bit (OpFlagTraced) is a frame flag marking a trace
// context — 16-byte trace ID plus a trace-flag byte — inserted between the
// opcode byte and the opcode fields, so untraced requests pay zero extra
// bytes. A response body is a status byte, the server's topology epoch
// (uint64), then status-specific fields. Responses are returned in request
// order, so clients may pipeline: write any number of request frames
// before reading the matching responses. The server flushes its write
// buffer whenever it runs out of buffered requests, making batched round
// trips cheap.
//
//	GET      key uint64                        → Hit version, value | Miss
//	GETL     key uint64                        → Hit version, value |
//	                                             Lease token, TTL [, stale hint]
//	SET      key uint64, flags byte,
//	         [version uint64 if VERSIONED],
//	         [token uint64 if LEASE],
//	         value                             → OK evicted, version |
//	                                             VersionStale stored version |
//	                                             LeaseLost stored version
//	DEL      key uint64                        → OK evicted, version
//	STATS    detail byte(0|1)                  → Stats payload (see Stats)
//	REHASH                                     → OK
//	KEYS                                       → stream of Keys frames of
//	                                             {key, version, tombstone}
//	                                             records; a frame with count 0
//	                                             terminates
//	MEMBERS                                    → Members topology payload
//	TOPOLOGY topology payload                  → Members (the view after apply)
//	METRICS  flags byte                        → Metrics payload (see Metrics)
//	HINT     target addr, key uint64,
//	         tombstone byte, version uint64,
//	         value                             → OK
//
// Version 2 added the SET flags byte between key and value. Its first
// defined bit, SetFlagRepair, marks replica-maintenance writes — read
// repair, warm-up and migration re-SETs issued by the cluster router — so
// servers can account for them separately from user traffic (Stats.Sets vs
// Stats.RepairSets) instead of recounting internal churn as load.
//
// Version 3 made cluster topology a first-class wire concept:
//
//   - Every response carries the server's topology epoch right after the
//     status byte, so a router piggybacks staleness detection on normal
//     traffic: a response epoch above its own means the membership changed
//     and a MEMBERS refresh is due.
//   - MEMBERS returns the server's current member list plus epoch, and
//     TOPOLOGY pushes one at it (adopted only if it is newer; the response
//     reports the view the server actually holds). See Topology.
//   - KEYS became a stream of bounded chunk frames ending in a terminator
//     (count 0), so enumerating a node is no longer capped by MaxFrame —
//     migration and warm-up scale past millions of residents.
//   - SetFlagAsync (valid only with SetFlagRepair) lets maintenance writes
//     be applied through the server's bounded background queue, shed under
//     overload, so repair floods never stall user traffic.
//
// KEYS is the migration and warm-up primitive for the cluster router
// (internal/cluster): removing a node enumerates its residents and re-SETs
// them on their new owners; adding one streams the newcomer's share into
// it. The snapshot is racy — concurrent traffic may add or evict entries
// while it is taken.
//
// Version 4 made values versioned so maintenance writes can no longer
// reinstate a value a concurrent user SET already superseded (the
// lost-update race the v3 spec documented as a deliberate caveat):
//
//   - Every stored value carries a monotonically increasing per-key
//     version, assigned by the server on unconditional SETs. HIT responses
//     carry the stored version before the value; OK responses to a SET
//     carry the version the write was stored under.
//   - SetFlagVersioned (valid only with SetFlagRepair) makes a SET
//     conditional: the request carries the version the writer observed,
//     and the server applies it only when that version is strictly newer
//     than the one it holds. A rejected write answers VERSION_STALE (with
//     the newer stored version) and is counted in Stats.StaleRepairs.
//     User SETs stay unconditional last-writer-wins.
//
// Version 5 put the server's flight recorder on the wire:
//
//   - METRICS returns server-side telemetry — per-op service-time
//     histograms (log-linear buckets, see internal/telemetry), scalar
//     counters (bytes in/out, connections, slow-op total), and the
//     slow-op ring — with a detail-flag byte selecting sections, so
//     latency distributions are observable per node and mergeable into a
//     cluster view without client-side inference.
//   - The STATS payload gained RepairQueueHighWater, the maximum async
//     maintenance queue depth since start, because the point-in-time
//     RepairQueueDepth hides shed-risk peaks between polls.
//
// Version 6 made requests traceable end to end:
//
//   - Any request may carry a trace context (OpFlagTraced on the opcode
//     byte, then TraceContext: a 16-byte ID and a flag byte whose
//     TraceFlagSampled bit asks servers to record spans). The cluster
//     router mints one context per sampled batch and propagates it across
//     fan-out, fallback reads, quorum writes, and async repair-queue
//     entries, so a repair applied seconds later still names the request
//     that caused it.
//   - METRICS gained the TRACES section (the server's sampled-span ring;
//     see telemetry.Span) and the HOTKEYS section (per-op-class
//     space-saving sketches of the hottest keys; see telemetry.TopK).
//   - The slow-op record grew a trailing 16-byte trace ID (all-zero when
//     the slow op was untraced), joining slow ops to their cluster-side
//     cause.
//
// Version 7 added the lease/singleflight miss path — memcached-style herd
// suppression for hot keys (Nishtala et al., NSDI'13):
//
//   - GETL (OpGetLease) is GET with lease semantics on a miss: the first
//     misser is handed a LEASE response carrying a nonzero token and the
//     lease TTL, making it the one caller entitled to load the origin and
//     fill the key. Concurrent missers get LEASE with token 0 — either
//     bare (back off briefly and retry; the filler is coming) or with a
//     stale hint: the last value the lease machinery saw for the key,
//     flagged stale, with its version, so a storm of missers is served
//     *something* without stampeding the origin. GETL on a resident key is
//     byte-identical to GET: it answers HIT and touches no lease state.
//   - SetFlagLease marks a SET as a lease fill: the request carries the
//     nonzero token between the flags byte and the value, and the server
//     applies the write only while that exact lease is outstanding and the
//     key's version is still what the grant observed. A fill that lost its
//     lease — expired, invalidated by a concurrent user SET or DEL, or
//     superseded by a newer grant — answers LEASE_LOST with the stored
//     version (0 when unknown) and changes nothing: like VERSION_STALE it
//     is a refusal, not a failure.
//   - The STATS payload gained LeasesGranted, LeasesExpired and
//     StaleServes.
//
// Version 8 made delete a versioned write, closing the last documented
// resurrection path and unblocking the availability layers built on it:
//
//   - DEL no longer erases history: the server stores a tombstone record
//     under a freshly assigned version (reaped after a TTL), and the DEL
//     response is always OK — the evicted byte reports whether a live
//     value was present, and the version field carries the tombstone's
//     assigned version, so routers can propagate the delete to replicas
//     and hints as an ordinary conditional versioned write.
//   - SetFlagTombstone (valid only with VERSIONED, hence REPAIR) makes a
//     maintenance SET carry a delete instead of a value: the body has an
//     empty value and the server stores a tombstone under the carried
//     version iff it is strictly newer than what it holds. Replica
//     repair, hint replay and anti-entropy use it so a delete can never
//     lose to an older live copy.
//   - KEYS frames stream {key uint64, version uint64, tombstone byte}
//     records instead of bare keys, so replica comparison — the
//     anti-entropy sweep, warm-up, migration — is one pass with no
//     per-key version round trips, and tombstones travel with the rest.
//   - HINT (OpHint) queues a hinted-handoff record on the receiving
//     server: a write (or delete) that could not reach its intended
//     owner, stored under a byte budget and replayed to the target — as
//     a conditional versioned write — when it becomes reachable again.
//   - The STATS payload gained Tombstones, TombstonesReaped, HintsQueued
//     and HintsReplayed.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"repro/internal/telemetry"
)

// ErrVersionMismatch is wrapped by ReadPreamble when the peer speaks a
// protocol revision other than Version. The server detects it with
// errors.Is and answers with a StatusError frame naming both revisions
// before closing the connection — the ERROR layout (status byte, epoch,
// message) has been stable since v3, so a v3 client reads a clear error
// instead of hanging on a silently closed connection. (v1/v2 peers
// predate the epoch field and see its bytes as message prefix; they still
// get a framed ERROR rather than a hang.)
var ErrVersionMismatch = errors.New("unsupported protocol version")

// Protocol constants.
const (
	// Magic is the 4-byte connection preamble prefix.
	Magic = "SACW"
	// Version is the protocol revision; the preamble carries it and servers
	// reject mismatches. Version 2 added the SET flags byte and the
	// Sets/RepairSets counters in the STATS payload; version 3 added the
	// topology epoch to every response, the MEMBERS and TOPOLOGY ops,
	// chunked KEYS streaming, the ASYNC SET flag, and the
	// RepairQueueDepth/RepairsShed counters; version 4 added per-key value
	// versions (in HIT and OK responses), the VERSIONED SET flag with the
	// VERSION_STALE status for conditional maintenance writes, and the
	// StaleRepairs counter; version 5 added the METRICS op (server-side
	// latency histograms, counters, and the slow-op log) and the
	// RepairQueueHighWater STATS counter; version 6 added the per-request
	// trace context (OpFlagTraced), the TRACES and HOTKEYS METRICS
	// sections, and the slow-op record's trailing trace ID; version 7
	// added the lease miss path — the GETL op, the LEASE and LEASE_LOST
	// statuses, the LEASE SET flag with its token field, and the
	// LeasesGranted/LeasesExpired/StaleServes counters; version 8 made
	// delete a versioned write — DEL answers OK with the assigned
	// tombstone version, the TOMBSTONE SET flag carries deletes through
	// maintenance writes, KEYS streams {key, version, tombstone} records,
	// the HINT op queues hinted handoffs, and the STATS payload gained
	// the Tombstones/TombstonesReaped/HintsQueued/HintsReplayed counters.
	Version = 8
	// MaxFrame bounds a frame body; it caps both value sizes and the damage
	// a corrupt length prefix can do.
	MaxFrame = 16 << 20
	// DefaultKeysChunk is the key count per KEYS stream frame servers use
	// unless configured otherwise: 64Ki keys is a 512KiB frame, far below
	// MaxFrame, and a full enumeration costs one frame per chunk rather
	// than one unbounded frame per node.
	DefaultKeysChunk = 1 << 16
	// MaxMembers bounds the member count of a topology payload.
	MaxMembers = 4096
	// MaxAddrLen bounds one member address in a topology payload.
	MaxAddrLen = 255
)

// Topology is a cluster member list stamped with a monotonically increasing
// epoch. Servers hold one (pushed by routers or joining peers via the
// TOPOLOGY op, served back via MEMBERS) and stamp its epoch into every
// response, which is how clients detect membership changes without polling.
// A server adopts a pushed topology only when it is strictly newer than the
// one it holds (or when it holds none), so stale pushes cannot roll the
// cluster view backwards.
type Topology struct {
	// Epoch is the version of the member list; it only ever increases.
	Epoch uint64
	// Members are the cluster node addresses, conventionally sorted.
	Members []string
}

// Validate rejects a topology whose member list could not have been
// produced by a conforming peer: too many members, empty or oversized
// addresses, or duplicates.
func (t Topology) Validate() error {
	if len(t.Members) > MaxMembers {
		return fmt.Errorf("wire: topology has %d members, max %d", len(t.Members), MaxMembers)
	}
	seen := make(map[string]bool, len(t.Members))
	for _, m := range t.Members {
		if m == "" {
			return fmt.Errorf("wire: topology has an empty member address")
		}
		if len(m) > MaxAddrLen {
			return fmt.Errorf("wire: topology member address %d bytes, max %d", len(m), MaxAddrLen)
		}
		if seen[m] {
			return fmt.Errorf("wire: topology lists member %q twice", m)
		}
		seen[m] = true
	}
	return nil
}

// appendTopology encodes t: epoch, member count, then length-prefixed
// addresses. The same layout serves TOPOLOGY requests and MEMBERS
// responses.
func appendTopology(body []byte, t Topology) []byte {
	body = binary.LittleEndian.AppendUint64(body, t.Epoch)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(t.Members)))
	for _, m := range t.Members {
		body = binary.LittleEndian.AppendUint16(body, uint16(len(m)))
		body = append(body, m...)
	}
	return body
}

// parseTopology decodes a topology payload and validates it.
func parseTopology(body []byte) (Topology, error) {
	if len(body) < 12 {
		return Topology{}, fmt.Errorf("wire: topology payload %d bytes, want ≥12", len(body))
	}
	t := Topology{Epoch: binary.LittleEndian.Uint64(body)}
	n := int(binary.LittleEndian.Uint32(body[8:]))
	if n > MaxMembers {
		return Topology{}, fmt.Errorf("wire: topology claims %d members, max %d", n, MaxMembers)
	}
	body = body[12:]
	t.Members = make([]string, 0, n)
	for i := 0; i < n; i++ {
		if len(body) < 2 {
			return Topology{}, fmt.Errorf("wire: topology payload truncated at member %d", i)
		}
		l := int(binary.LittleEndian.Uint16(body))
		body = body[2:]
		if len(body) < l {
			return Topology{}, fmt.Errorf("wire: topology member %d claims %d bytes, %d remain", i, l, len(body))
		}
		t.Members = append(t.Members, string(body[:l]))
		body = body[l:]
	}
	if len(body) != 0 {
		return Topology{}, fmt.Errorf("wire: topology payload has %d trailing bytes", len(body))
	}
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// SetFlags is the flag byte carried by every SET request; it is a bit set.
type SetFlags byte

// The defined SET flag bits. Servers reject frames with undefined bits set,
// so the remaining bits stay available for future revisions.
const (
	// SetFlagRepair marks a SET as replica maintenance — a read-repair,
	// warm-up or migration write issued by the cluster router — rather
	// than user traffic. Servers apply it normally but count it under
	// Stats.RepairSets instead of Stats.Sets.
	SetFlagRepair SetFlags = 1 << 0

	// SetFlagAsync, valid only alongside SetFlagRepair, asks the server to
	// apply the write through its bounded background maintenance queue:
	// the OK response means accepted, not yet applied, and the write may
	// be shed (counted in Stats.RepairsShed) when the queue is full.
	// Callers must therefore be prepared to re-issue it later — which the
	// cluster router's read repair is by construction, since the next
	// fallback read of the key schedules a fresh repair. Migration and
	// warm-up writes stay synchronous: their accounting ("every key moved
	// or accounted for") cannot tolerate a silent shed.
	SetFlagAsync SetFlags = 1 << 1

	// SetFlagVersioned, valid only alongside SetFlagRepair, makes the SET
	// conditional on the version the writer observed: the request body
	// carries that version between the flags byte and the value, the server
	// stores the value under it only when it is strictly newer than the
	// version it holds for the key, and a rejected write answers
	// VERSION_STALE instead of OK (counted in Stats.StaleRepairs). This is
	// what keeps a maintenance write — read repair, warm-up, migration, or
	// an entry draining out of the async queue — from reinstating a value a
	// concurrent user SET already superseded. User SETs never carry it:
	// they stay unconditional last-writer-wins and always advance the key's
	// version.
	SetFlagVersioned SetFlags = 1 << 2

	// SetFlagLease marks the SET as a lease fill (v7): the request carries
	// the nonzero lease token — handed to this writer by a LEASE response —
	// between the flags byte and the value, and the server applies the
	// write only while that exact lease is still outstanding and the key's
	// version is unchanged since the grant. A fill whose lease is gone
	// answers LEASE_LOST and stores nothing. A lease fill is user traffic
	// loading the origin on a miss, not replica maintenance, so the flag is
	// invalid in combination with SetFlagRepair (and therefore with ASYNC
	// and VERSIONED).
	SetFlagLease SetFlags = 1 << 3

	// SetFlagTombstone (v8), valid only alongside SetFlagVersioned (and
	// therefore SetFlagRepair), makes the conditional SET carry a delete:
	// the body's value is empty, and the server stores a *tombstone*
	// record under the carried version iff it is strictly newer than the
	// version it holds — exactly the VERSIONED rule, applied to a delete.
	// This is how replica repair, hint replay, the anti-entropy sweep and
	// migration propagate deletes without ever letting an older live copy
	// win. User deletes never carry it: DEL assigns the tombstone's
	// version itself, like a user SET.
	SetFlagTombstone SetFlags = 1 << 4

	// setFlagsDefined masks the bits a conforming frame may set.
	setFlagsDefined = SetFlagRepair | SetFlagAsync | SetFlagVersioned | SetFlagLease | SetFlagTombstone
)

// OpFlagTraced is the frame flag on the request opcode byte (its high
// bit) marking that a TraceContext — TraceContextLen bytes — follows the
// opcode byte before the opcode-specific fields. The low 7 bits stay the
// opcode proper, and untraced requests are byte-identical to v5 frames:
// tracing costs nothing unless a request opts in.
const OpFlagTraced byte = 0x80

// TraceContextLen is the encoded size of a trace context: the 16-byte
// trace ID followed by the trace-flag byte.
const TraceContextLen = 17

// TraceFlags is the flag byte of a trace context; it is a bit set.
type TraceFlags byte

// The defined trace-context flags. Both ends reject undefined bits so
// the remaining bits stay available for future revisions.
const (
	// TraceFlagSampled asks servers on the request's path to record a
	// span for it (telemetry.SpanRing, readable via the METRICS TRACES
	// section). A context without the bit still propagates — downstream
	// writes it causes keep the ID — but records nothing.
	TraceFlagSampled TraceFlags = 1 << 0

	// traceFlagsDefined masks the bits a conforming frame may set.
	traceFlagsDefined = TraceFlagSampled
)

// TraceContext is the per-request trace identity carried by v6 frames:
// minted once by the cluster router, then attached to every wire request
// the original request fans out into — including async repair-queue
// entries applied long after the response went out.
type TraceContext struct {
	// ID is the 16-byte trace identifier; a conforming frame never
	// carries a zero ID.
	ID telemetry.TraceID
	// Flags is the trace-flag byte (TraceFlagSampled et al.).
	Flags TraceFlags
}

// Sampled reports whether the context asks servers to record spans.
func (tc TraceContext) Sampled() bool { return tc.Flags&TraceFlagSampled != 0 }

func (tc TraceContext) validate() error {
	if tc.ID.IsZero() {
		return fmt.Errorf("wire: trace context with a zero trace ID")
	}
	if tc.Flags&^traceFlagsDefined != 0 {
		return fmt.Errorf("wire: trace flags %#02x has undefined bits", byte(tc.Flags))
	}
	return nil
}

// Op is a request opcode.
type Op byte

// The request opcodes.
const (
	OpGet Op = iota + 1
	OpSet
	OpDel
	OpStats
	OpRehash
	OpKeys
	OpMembers
	OpTopology
	OpMetrics
	// OpGetLease (GETL, v7) is GET with lease semantics on a miss: a
	// resident key answers HIT exactly like GET, a miss answers LEASE —
	// granting this caller the fill token, or telling it someone else
	// already holds it (optionally with a stale hint). The body is the
	// same 8-byte key as GET.
	OpGetLease
	// OpHint (HINT, v8) hands the receiving server a hinted-handoff
	// record: a versioned write (or, with the tombstone byte set, a
	// delete) whose intended owner — the target address in the body — was
	// unreachable. The server queues it under a byte budget and replays
	// it to the target as a conditional versioned write once the target
	// is reachable again; over budget, the oldest hints for that target
	// are dropped (the anti-entropy sweep is the backstop). The response
	// is OK.
	OpHint
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpSet:
		return "SET"
	case OpDel:
		return "DEL"
	case OpStats:
		return "STATS"
	case OpRehash:
		return "REHASH"
	case OpKeys:
		return "KEYS"
	case OpMembers:
		return "MEMBERS"
	case OpTopology:
		return "TOPOLOGY"
	case OpMetrics:
		return "METRICS"
	case OpGetLease:
		return "GETL"
	case OpHint:
		return "HINT"
	default:
		return fmt.Sprintf("Op(%d)", byte(o))
	}
}

// Status is a response status code.
type Status byte

// The response statuses.
const (
	StatusHit Status = iota + 1
	StatusMiss
	StatusOK
	StatusStats
	StatusError
	StatusKeys
	StatusMembers
	// StatusVersionStale rejects a VERSIONED SET whose carried version was
	// not strictly newer than the stored one; the body reports the stored
	// (winning) version. It is a refusal, not a failure: the invariant the
	// writer wanted — never overwrite fresher state — held, so callers
	// treat it as a successful no-op.
	StatusVersionStale
	// StatusMetrics carries a METRICS response payload.
	StatusMetrics
	// StatusLease answers a GETL miss (v7). A nonzero token grants this
	// caller the lease: it alone should load the origin and fill the key
	// with a LEASE-flagged SET carrying the token, within the TTL. A zero
	// token means another caller already holds the lease; the body then
	// either carries a stale hint — the last value the lease machinery saw
	// for the key, with its version, flagged stale — or nothing, in which
	// case the caller should back off briefly and retry while the holder
	// fills.
	StatusLease
	// StatusLeaseLost rejects a LEASE fill whose lease is no longer
	// outstanding — expired, invalidated by a concurrent write or DEL, or
	// superseded — or whose key changed version since the grant. The body
	// reports the stored version (0 when the key is absent or the version
	// is unknown). Like VERSION_STALE it is a refusal, not a failure: the
	// invariant the protocol wants — at most one fill lands per lease, and
	// never over fresher state — held.
	StatusLeaseLost
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusHit:
		return "HIT"
	case StatusMiss:
		return "MISS"
	case StatusOK:
		return "OK"
	case StatusStats:
		return "STATS"
	case StatusError:
		return "ERROR"
	case StatusKeys:
		return "KEYS"
	case StatusMembers:
		return "MEMBERS"
	case StatusVersionStale:
		return "VERSION_STALE"
	case StatusMetrics:
		return "METRICS"
	case StatusLease:
		return "LEASE"
	case StatusLeaseLost:
		return "LEASE_LOST"
	default:
		return fmt.Sprintf("Status(%d)", byte(s))
	}
}

// Request is one decoded request frame.
type Request struct {
	// Op is the request opcode.
	Op Op
	// Key is the cache key of a GET, SET or DEL.
	Key uint64
	// Value is the payload of a SET (or HINT). It aliases the reader's
	// stream buffer (or its body buffer, for a frame larger than the
	// stream buffer) and is only valid until the next Read call.
	Value []byte
	// Flags is the SET flag byte (zero for user writes).
	Flags SetFlags
	// Version is the observed value version a VERSIONED SET carries; it is
	// encoded on the wire only when Flags has SetFlagVersioned.
	Version uint64
	// LeaseToken is the fill token a LEASE SET carries; it is encoded on
	// the wire only when Flags has SetFlagLease, and a conforming frame
	// never carries a zero token (zero is the "no lease" sentinel in LEASE
	// responses).
	LeaseToken uint64
	// Target is the intended owner address of a HINT: the member the
	// hinted write could not reach and should be replayed to.
	Target string
	// Tombstone marks a HINT whose hinted write is a delete; the Value is
	// then empty and the replay carries SetFlagTombstone.
	Tombstone bool
	// Detail asks STATS to include per-shard counters.
	Detail bool
	// Topology is the payload of a TOPOLOGY push.
	Topology Topology
	// MetricsFlags selects the payload sections of a METRICS request; it
	// must name at least one section.
	MetricsFlags MetricsFlags
	// Trace is the request's trace context; meaningful only when Traced.
	Trace TraceContext
	// Traced reports whether the frame carries a trace context
	// (OpFlagTraced was set on the opcode byte).
	Traced bool
}

// KeyRec is one record of a KEYS stream frame (v8): a resident key, the
// version it is stored under, and whether the record is a tombstone — a
// versioned delete still within its reap TTL. Tombstones travel in the
// stream so replica comparison (anti-entropy, warm-up, migration) sees
// deletes with the same one-pass scan it sees values, instead of
// mistaking a deleted key for a missing one.
type KeyRec struct {
	// Key is the cache key.
	Key uint64
	// Version is the version the record is stored under.
	Version uint64
	// Tombstone marks a versioned delete; the key has no value.
	Tombstone bool
}

// Response is one decoded response frame.
type Response struct {
	Status Status
	// Epoch is the responding server's topology epoch; every response
	// carries it, so clients piggyback staleness detection on any traffic.
	Epoch uint64
	// Value is a GET hit's payload; valid until the next Read call.
	Value []byte
	// Version is the stored value version: in a HIT it is the version of
	// the value returned, in an OK replying to an applied SET it is the
	// version the value was stored under (0 when the write was queued —
	// ASYNC — or when replying to DEL or REHASH), and in a VERSION_STALE
	// it is the newer version that won.
	Version uint64
	// Evicted reports whether a SET displaced an entry.
	Evicted bool
	// Stats is the payload of a STATS response.
	Stats *Stats
	// Keys is the payload of one KEYS stream frame — {key, version,
	// tombstone} records since v8; an empty Keys frame terminates the
	// stream.
	Keys []KeyRec
	// Topology is the payload of a MEMBERS response.
	Topology Topology
	// Metrics is the payload of a METRICS response.
	Metrics *Metrics
	// LeaseToken is a LEASE response's fill token: nonzero grants this
	// caller the lease, zero means another caller holds it. In a LEASE
	// SET's LEASE_LOST reply the stored version rides in Version instead.
	LeaseToken uint64
	// LeaseTTL is how long the lease (or, for a zero-token LEASE, the
	// current holder's lease) remains outstanding; the wire carries it as
	// whole milliseconds, at least 1.
	LeaseTTL time.Duration
	// Stale marks a zero-token LEASE that carries a stale hint: Version and
	// Value then hold the last value the lease machinery saw for the key —
	// possibly superseded, served so missers need not stampede the origin.
	Stale bool
	// Err is the message of an error response.
	Err string
}

// Stats is the wire form of the server's counter snapshot; see
// concurrent.Snapshot for the cache-level field semantics. Sets and
// RepairSets are tracked by the server itself: they split write traffic
// into user SETs and replica-maintenance SETs (SetFlagRepair), so repair
// churn never inflates the apparent user load. RepairQueueDepth and
// RepairsShed expose the server's bounded queue of async maintenance
// writes (SetFlagAsync), making repair backpressure observable: a rising
// depth means maintenance is arriving faster than it drains, and a shed
// is a repair the server dropped to protect user traffic; because depth is
// point-in-time and peaks fall between polls, RepairQueueHighWater (v5)
// reports the maximum depth since start. StaleRepairs
// counts VERSIONED writes the server rejected because it already held a
// strictly newer version — each one is a lost-update race the version
// check won (under v3 semantics the stale value would have been stored).
type Stats struct {
	Hits              uint64
	Misses            uint64
	Evictions         uint64
	ConflictEvictions uint64
	FlushEvictions    uint64
	Rehashes          uint64
	Pending           uint64
	Len               uint64
	Capacity          uint64
	Alpha             uint64
	Buckets           uint64
	Sets              uint64
	RepairSets        uint64
	RepairQueueDepth  uint64
	RepairsShed       uint64
	StaleRepairs      uint64
	// RepairQueueHighWater is the maximum RepairQueueDepth observed since
	// the server started — the shed-risk signal the point-in-time depth
	// hides between polls.
	RepairQueueHighWater uint64
	// LeasesGranted counts GETL misses answered with a nonzero token —
	// each one is a caller elected to load the origin for a key.
	LeasesGranted uint64
	// LeasesExpired counts leases that timed out unfilled; their fills, if
	// they ever arrive, answer LEASE_LOST.
	LeasesExpired uint64
	// StaleServes counts zero-token LEASE responses that carried a stale
	// hint — missers served a possibly superseded value instead of joining
	// the stampede.
	StaleServes uint64
	// Tombstones is the number of tombstone records currently resident —
	// versioned deletes still within their reap TTL. A gauge, not a
	// counter.
	Tombstones uint64
	// TombstonesReaped counts tombstones removed by the reaper after
	// outliving their TTL.
	TombstonesReaped uint64
	// HintsQueued counts hinted-handoff records accepted via HINT (v8) —
	// writes to an unreachable owner parked on this server for replay.
	HintsQueued uint64
	// HintsReplayed counts queued hints delivered to their target as
	// conditional versioned writes (a VERSION_STALE refusal counts: the
	// target provably holds something newer, which is all a hint wants).
	HintsReplayed uint64
	Migrating     bool
	// Shards is present only when the STATS request set Detail.
	Shards []ShardStat
}

// statsFields is the canonical wire order of the fixed uint64 counters in a
// STATS payload. appendStats, parseStats, and the ARCHITECTURE.md spec test
// all derive from this one table, so the serialized layout cannot drift
// from the documented one.
var statsFields = []struct {
	name string
	get  func(*Stats) *uint64
}{
	{"Hits", func(s *Stats) *uint64 { return &s.Hits }},
	{"Misses", func(s *Stats) *uint64 { return &s.Misses }},
	{"Evictions", func(s *Stats) *uint64 { return &s.Evictions }},
	{"ConflictEvictions", func(s *Stats) *uint64 { return &s.ConflictEvictions }},
	{"FlushEvictions", func(s *Stats) *uint64 { return &s.FlushEvictions }},
	{"Rehashes", func(s *Stats) *uint64 { return &s.Rehashes }},
	{"Pending", func(s *Stats) *uint64 { return &s.Pending }},
	{"Len", func(s *Stats) *uint64 { return &s.Len }},
	{"Capacity", func(s *Stats) *uint64 { return &s.Capacity }},
	{"Alpha", func(s *Stats) *uint64 { return &s.Alpha }},
	{"Buckets", func(s *Stats) *uint64 { return &s.Buckets }},
	{"Sets", func(s *Stats) *uint64 { return &s.Sets }},
	{"RepairSets", func(s *Stats) *uint64 { return &s.RepairSets }},
	{"RepairQueueDepth", func(s *Stats) *uint64 { return &s.RepairQueueDepth }},
	{"RepairsShed", func(s *Stats) *uint64 { return &s.RepairsShed }},
	{"StaleRepairs", func(s *Stats) *uint64 { return &s.StaleRepairs }},
	{"RepairQueueHighWater", func(s *Stats) *uint64 { return &s.RepairQueueHighWater }},
	{"LeasesGranted", func(s *Stats) *uint64 { return &s.LeasesGranted }},
	{"LeasesExpired", func(s *Stats) *uint64 { return &s.LeasesExpired }},
	{"StaleServes", func(s *Stats) *uint64 { return &s.StaleServes }},
	{"Tombstones", func(s *Stats) *uint64 { return &s.Tombstones }},
	{"TombstonesReaped", func(s *Stats) *uint64 { return &s.TombstonesReaped }},
	{"HintsQueued", func(s *Stats) *uint64 { return &s.HintsQueued }},
	{"HintsReplayed", func(s *Stats) *uint64 { return &s.HintsReplayed }},
}

// MissRatio returns Misses / (Hits + Misses), or 0 before any GET.
func (s Stats) MissRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// ShardStat is one bucket's counters.
type ShardStat struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Len       uint64
}

const statsFixedLen = 24*8 + 1 // 24 uint64 counters (statsFields) + migrating byte

// keyRecLen is the encoded size of one KEYS stream record: key uint64,
// version uint64, tombstone byte.
const keyRecLen = 17

// Codec buffer tuning. The shrink policy keeps one large frame (a KEYS
// chunk, a METRICS snapshot, a big value) from pinning its buffer on a
// long-lived connection forever: once the buffer exceeds codecShrinkCap
// and codecIdleFrames consecutive frames (reads) or flushes (writes)
// stayed under it, the buffer is reallocated back down to codecShrinkCap.
const (
	// codecShrinkCap is the largest buffer capacity a steady small-frame
	// workload retains per connection endpoint (64 KiB comfortably holds
	// the deepest pipelined batch the harnesses drive).
	codecShrinkCap = 64 << 10
	// codecIdleFrames is how many consecutive small frames/flushes an
	// oversized buffer survives before shrinking — large enough that a
	// periodic KEYS/METRICS poll doesn't thrash the allocation.
	codecIdleFrames = 64
	// zeroCopyMin is the value length from which WriteRequest (SET) and
	// WriteResponse (HIT) stop copying the value into the frame buffer
	// and instead send it as its own vectored-write segment. Below it the
	// memcpy is cheaper than an extra iovec entry.
	zeroCopyMin = 4 << 10
)

// BuffersWriter is the optional interface a Writer's destination can
// implement to receive a whole flush as one vectored write. net.Conn
// destinations don't need it (net.Buffers.WriteTo already uses writev);
// wrappers around a net.Conn (byte counters, instrumented writers)
// implement it by delegating to the wrapped connection, so the writev
// survives the wrapping instead of degrading to one syscall per segment.
type BuffersWriter interface {
	WriteBuffers(*net.Buffers) (int64, error)
}

// Writer encodes frames into an owned buffer and sends a whole flush in
// one (vectored) write. It is not safe for concurrent use.
//
// Values at least zeroCopyMin long passed to WriteRequest (SET) or
// WriteResponse (HIT) are not copied: the slice is referenced until the
// next Flush, so the caller must not modify its contents in between.
// Both servers (immutable stored values) and clients (values held across
// the enqueue→Flush window of one batch) satisfy this naturally; see the
// "Buffer ownership and aliasing" section of ARCHITECTURE.md.
//
// A flush error is sticky: the buffered frames (possibly half-sent) are
// discarded, and every later call returns the same error, so a partial
// frame can never be resent as the prefix of fresh scratch. Callers drop
// the connection, exactly as they would for any transport error.
type Writer struct {
	out   io.Writer
	chunk []byte      // frames encoded in place; chunk[mark:] is not yet sealed
	segs  net.Buffers // sealed flush segments: chunk regions + zero-copy values
	mark  int         // start of the unsealed tail of chunk
	err   error       // sticky flush error
	idle  int         // consecutive small flushes with an oversized chunk
}

// NewWriter wraps w in a frame encoder.
func NewWriter(w io.Writer) *Writer {
	return &Writer{out: w}
}

// WritePreamble emits the connection preamble (client side, once).
func (w *Writer) WritePreamble() error {
	if w.err != nil {
		return w.err
	}
	w.chunk = append(w.chunk, Magic...)
	w.chunk = binary.LittleEndian.AppendUint32(w.chunk, Version)
	return nil
}

// Flush sends every buffered frame in one vectored write.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.seal()
	var err error
	switch len(w.segs) {
	case 0:
		return nil
	case 1:
		_, err = w.out.Write(w.segs[0])
	default:
		if bw, ok := w.out.(BuffersWriter); ok {
			_, err = bw.WriteBuffers(&w.segs)
		} else {
			_, err = w.segs.WriteTo(w.out)
		}
	}
	// Drop segment references either way: on success they are sent, on
	// error the connection is dead and half a frame must never survive
	// as reusable scratch.
	for i := range w.segs {
		w.segs[i] = nil
	}
	w.segs = w.segs[:0]
	used := len(w.chunk)
	w.chunk = w.chunk[:0]
	w.mark = 0
	if err != nil {
		w.err = err
		return err
	}
	// Shrink-on-idle: a chunk grown by one huge frame (METRICS, a big
	// value) must not stay pinned on a connection that went back to
	// small frames.
	if cap(w.chunk) > codecShrinkCap {
		if used <= codecShrinkCap {
			if w.idle++; w.idle >= codecIdleFrames {
				w.chunk = make([]byte, 0, codecShrinkCap)
				w.idle = 0
			}
		} else {
			w.idle = 0
		}
	}
	return nil
}

// seal closes the unsealed tail of chunk into a flush segment.
func (w *Writer) seal() {
	if len(w.chunk) > w.mark {
		w.segs = append(w.segs, w.chunk[w.mark:len(w.chunk):len(w.chunk)])
		w.mark = len(w.chunk)
	}
}

// beginFrame reserves a frame's 4-byte length prefix in chunk and returns
// its offset, to be backfilled by endFrame once the body length is known.
func (w *Writer) beginFrame() int {
	w.chunk = append(w.chunk, 0, 0, 0, 0)
	return len(w.chunk) - 4
}

// endFrame backfills the length prefix of the frame begun at off.
// external counts value bytes that will travel as their own segment
// rather than through chunk. On error the partial frame is discarded.
func (w *Writer) endFrame(off, external int) error {
	n := len(w.chunk) - off - 4 + external
	if n > MaxFrame {
		w.chunk = w.chunk[:off]
		return fmt.Errorf("wire: frame body %d exceeds max %d", n, MaxFrame)
	}
	binary.LittleEndian.PutUint32(w.chunk[off:], uint32(n))
	return nil
}

// sealValue appends val as a zero-copy segment of the current flush. The
// caller must keep val unmodified until Flush returns.
func (w *Writer) sealValue(val []byte) {
	w.seal()
	w.segs = append(w.segs, val)
}

// abortFrame discards the partial frame begun at off and returns err.
func (w *Writer) abortFrame(off int, err error) error {
	w.chunk = w.chunk[:off]
	return err
}

// WriteRequest encodes one request frame (buffered; call Flush to send).
// A SET Value at least zeroCopyMin long is referenced, not copied, and
// must stay unmodified until Flush.
func (w *Writer) WriteRequest(req Request) error {
	if w.err != nil {
		return w.err
	}
	off := w.beginFrame()
	if req.Traced {
		if err := req.Trace.validate(); err != nil {
			return w.abortFrame(off, err)
		}
		w.chunk = append(w.chunk, byte(req.Op)|OpFlagTraced)
		w.chunk = append(w.chunk, req.Trace.ID[:]...)
		w.chunk = append(w.chunk, byte(req.Trace.Flags))
	} else {
		w.chunk = append(w.chunk, byte(req.Op))
	}
	external := 0
	switch req.Op {
	case OpGet, OpDel, OpGetLease:
		w.chunk = binary.LittleEndian.AppendUint64(w.chunk, req.Key)
	case OpSet:
		w.chunk = binary.LittleEndian.AppendUint64(w.chunk, req.Key)
		w.chunk = append(w.chunk, byte(req.Flags))
		if req.Flags&SetFlagTombstone != 0 {
			if req.Flags&SetFlagVersioned == 0 {
				return w.abortFrame(off, fmt.Errorf("wire: SET flag TOMBSTONE is only valid with VERSIONED"))
			}
			if len(req.Value) != 0 {
				return w.abortFrame(off, fmt.Errorf("wire: TOMBSTONE SET carries a value"))
			}
		}
		if req.Flags&SetFlagVersioned != 0 {
			w.chunk = binary.LittleEndian.AppendUint64(w.chunk, req.Version)
		}
		if req.Flags&SetFlagLease != 0 {
			if req.Flags&SetFlagRepair != 0 {
				return w.abortFrame(off, fmt.Errorf("wire: SET flag LEASE is not valid with REPAIR"))
			}
			if req.LeaseToken == 0 {
				return w.abortFrame(off, fmt.Errorf("wire: LEASE SET with a zero token"))
			}
			w.chunk = binary.LittleEndian.AppendUint64(w.chunk, req.LeaseToken)
		}
		if len(req.Value) >= zeroCopyMin {
			external = len(req.Value)
		} else {
			w.chunk = append(w.chunk, req.Value...)
		}
	case OpHint:
		if req.Target == "" || len(req.Target) > MaxAddrLen {
			return w.abortFrame(off, fmt.Errorf("wire: HINT target address %d bytes, want 1..%d", len(req.Target), MaxAddrLen))
		}
		if req.Version == 0 {
			return w.abortFrame(off, fmt.Errorf("wire: HINT with a zero version"))
		}
		if req.Tombstone && len(req.Value) != 0 {
			return w.abortFrame(off, fmt.Errorf("wire: tombstone HINT carries a value"))
		}
		w.chunk = append(w.chunk, byte(len(req.Target)))
		w.chunk = append(w.chunk, req.Target...)
		w.chunk = binary.LittleEndian.AppendUint64(w.chunk, req.Key)
		tb := byte(0)
		if req.Tombstone {
			tb = 1
		}
		w.chunk = append(w.chunk, tb)
		w.chunk = binary.LittleEndian.AppendUint64(w.chunk, req.Version)
		w.chunk = append(w.chunk, req.Value...)
	case OpStats:
		d := byte(0)
		if req.Detail {
			d = 1
		}
		w.chunk = append(w.chunk, d)
	case OpRehash, OpKeys, OpMembers:
	case OpMetrics:
		if err := req.MetricsFlags.validate(); err != nil {
			return w.abortFrame(off, err)
		}
		w.chunk = append(w.chunk, byte(req.MetricsFlags))
	case OpTopology:
		if err := req.Topology.Validate(); err != nil {
			return w.abortFrame(off, err)
		}
		if len(req.Topology.Members) == 0 {
			return w.abortFrame(off, fmt.Errorf("wire: TOPOLOGY push with no members"))
		}
		w.chunk = appendTopology(w.chunk, req.Topology)
	default:
		return w.abortFrame(off, fmt.Errorf("wire: unknown request op %v", req.Op))
	}
	if err := w.endFrame(off, external); err != nil {
		return err
	}
	if external > 0 {
		w.sealValue(req.Value)
	}
	return nil
}

// WriteResponse encodes one response frame (buffered; call Flush to send).
// Every response carries resp.Epoch — the server's topology epoch — right
// after the status byte. A HIT Value at least zeroCopyMin long is
// referenced, not copied, and must stay unmodified until Flush — which a
// server whose stored values are immutable satisfies by construction.
func (w *Writer) WriteResponse(resp *Response) error {
	if w.err != nil {
		return w.err
	}
	off := w.beginFrame()
	w.chunk = append(w.chunk, byte(resp.Status))
	w.chunk = binary.LittleEndian.AppendUint64(w.chunk, resp.Epoch)
	external := 0
	switch resp.Status {
	case StatusHit:
		w.chunk = binary.LittleEndian.AppendUint64(w.chunk, resp.Version)
		if len(resp.Value) >= zeroCopyMin {
			external = len(resp.Value)
		} else {
			w.chunk = append(w.chunk, resp.Value...)
		}
	case StatusMiss:
	case StatusOK:
		e := byte(0)
		if resp.Evicted {
			e = 1
		}
		w.chunk = append(w.chunk, e)
		w.chunk = binary.LittleEndian.AppendUint64(w.chunk, resp.Version)
	case StatusVersionStale:
		w.chunk = binary.LittleEndian.AppendUint64(w.chunk, resp.Version)
	case StatusLease:
		if resp.LeaseToken != 0 && resp.Stale {
			return w.abortFrame(off, fmt.Errorf("wire: LEASE grant cannot carry a stale hint"))
		}
		w.chunk = binary.LittleEndian.AppendUint64(w.chunk, resp.LeaseToken)
		ms := resp.LeaseTTL.Milliseconds()
		if ms < 1 {
			ms = 1 // a lease is never already dead on the wire
		} else if ms > math.MaxUint32 {
			ms = math.MaxUint32
		}
		w.chunk = binary.LittleEndian.AppendUint32(w.chunk, uint32(ms))
		st := byte(0)
		if resp.Stale {
			st = 1
		}
		w.chunk = append(w.chunk, st)
		if resp.Stale {
			w.chunk = binary.LittleEndian.AppendUint64(w.chunk, resp.Version)
			w.chunk = append(w.chunk, resp.Value...)
		}
	case StatusLeaseLost:
		w.chunk = binary.LittleEndian.AppendUint64(w.chunk, resp.Version)
	case StatusStats:
		if resp.Stats == nil {
			return w.abortFrame(off, fmt.Errorf("wire: stats response without payload"))
		}
		w.chunk = appendStats(w.chunk, resp.Stats)
	case StatusError:
		w.chunk = append(w.chunk, resp.Err...)
	case StatusKeys:
		w.chunk = binary.LittleEndian.AppendUint32(w.chunk, uint32(len(resp.Keys)))
		for _, rec := range resp.Keys {
			w.chunk = binary.LittleEndian.AppendUint64(w.chunk, rec.Key)
			w.chunk = binary.LittleEndian.AppendUint64(w.chunk, rec.Version)
			tb := byte(0)
			if rec.Tombstone {
				tb = 1
			}
			w.chunk = append(w.chunk, tb)
		}
	case StatusMembers:
		if err := resp.Topology.Validate(); err != nil {
			return w.abortFrame(off, err)
		}
		w.chunk = appendTopology(w.chunk, resp.Topology)
	case StatusMetrics:
		if resp.Metrics == nil {
			return w.abortFrame(off, fmt.Errorf("wire: metrics response without payload"))
		}
		var err error
		if w.chunk, err = appendMetrics(w.chunk, resp.Metrics); err != nil {
			return w.abortFrame(off, err)
		}
	default:
		return w.abortFrame(off, fmt.Errorf("wire: unknown response status %v", resp.Status))
	}
	if err := w.endFrame(off, external); err != nil {
		return err
	}
	if external > 0 {
		w.sealValue(resp.Value)
	}
	return nil
}

func appendStats(body []byte, s *Stats) []byte {
	for _, f := range statsFields {
		body = binary.LittleEndian.AppendUint64(body, *f.get(s))
	}
	m := byte(0)
	if s.Migrating {
		m = 1
	}
	body = append(body, m)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(s.Shards)))
	for _, sh := range s.Shards {
		body = binary.LittleEndian.AppendUint64(body, sh.Hits)
		body = binary.LittleEndian.AppendUint64(body, sh.Misses)
		body = binary.LittleEndian.AppendUint64(body, sh.Evictions)
		body = binary.LittleEndian.AppendUint64(body, sh.Len)
	}
	return body
}

// Reader decodes frames from a buffered stream. It is not safe for
// concurrent use.
//
// A frame that fits the stream buffer (length prefix included) is decoded
// in place: the body handed to the decoder is a view of the buffer, so the
// common small frame costs no copy at all. Larger frames are read into
// body, which grows as their bytes arrive.
type Reader struct {
	br   *bufio.Reader
	body []byte
	// keys backs Response.Keys across calls, like body backs Value.
	keys []KeyRec
	// idle counts consecutive frames that fit codecShrinkCap while body
	// was grown beyond it (shrink-on-idle, mirroring the Writer).
	idle int
}

// NewReader wraps r in a frame decoder with the default buffer size.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReader(r)}
}

// NewReaderSize is NewReader with an explicit stream buffer size, for
// endpoints that read deep pipelined batches in one syscall (the server
// sizes its per-connection reader with this; see internal/server).
func NewReaderSize(r io.Reader, size int) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, size)}
}

// ReadPreamble validates the connection preamble (server side, once).
func (r *Reader) ReadPreamble() error {
	pre, err := r.peek(8)
	if err != nil {
		return fmt.Errorf("wire: reading preamble: %w", err)
	}
	if string(pre[:4]) != Magic {
		return fmt.Errorf("wire: bad magic %q", pre[:4])
	}
	if v := binary.LittleEndian.Uint32(pre[4:8]); v != Version {
		return fmt.Errorf("wire: %w %d (this end speaks %d)", ErrVersionMismatch, v, Version)
	}
	r.br.Discard(8) // just peeked, so it cannot fail
	return nil
}

// Buffered returns the number of bytes already readable without blocking;
// the server uses it to decide when to flush responses.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// peek returns the next n buffered bytes without consuming them, with
// io.ReadFull's error convention: io.EOF only when the stream ended before
// any of them, io.ErrUnexpectedEOF when it ended partway.
func (r *Reader) peek(n int) ([]byte, error) {
	p, err := r.br.Peek(n)
	if err == io.EOF && len(p) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return p, err
}

// readFrame returns the next frame body. It aliases the stream buffer (or
// body, for a frame larger than the stream buffer) and is valid until the
// next read.
func (r *Reader) readFrame() ([]byte, error) {
	hdr, err := r.peek(4)
	if err != nil {
		return nil, err // io.EOF between frames means a clean close
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame length %d exceeds max %d", n, MaxFrame)
	}
	// Shrink-on-idle: one KEYS or METRICS frame must not pin up to
	// MaxFrame (and a keys buffer) on this connection forever once the
	// traffic goes back to small frames.
	if cap(r.body) > codecShrinkCap && n <= codecShrinkCap {
		if r.idle++; r.idle >= codecIdleFrames {
			r.body = nil
			r.keys = nil
			r.idle = 0
		}
	} else {
		r.idle = 0
	}
	if 4+n <= r.br.Size() {
		frame, err := r.peek(4 + n)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the length prefix was there
			}
			return nil, fmt.Errorf("wire: reading frame body: %w", err)
		}
		r.br.Discard(4 + n) // just peeked, so it cannot fail
		return frame[4 : 4+n : 4+n], nil
	}
	r.br.Discard(4) // the peeked length prefix
	return r.readBody(n)
}

// readBody reads an n-byte frame body that does not fit the stream buffer
// into body. The buffer grows only as bytes arrive — doubling from
// codecShrinkCap, capped at n — so a length prefix claiming MaxFrame over
// a stream that then stalls or ends costs what was sent, not MaxFrame.
func (r *Reader) readBody(n int) ([]byte, error) {
	body := r.body[:0]
	for len(body) < n {
		if len(body) == cap(body) {
			body = append(make([]byte, 0, min(max(2*cap(body), codecShrinkCap), n)), body...)
		}
		k, err := io.ReadFull(r.br, body[len(body):min(cap(body), n)])
		body = body[:len(body)+k]
		r.body = body
		if err != nil {
			return nil, fmt.Errorf("wire: reading frame body: %w", err)
		}
	}
	return body, nil
}

// ReadRequest decodes the next request frame into req (server side),
// overwriting every field. Value aliases the stream buffer or an internal
// one, valid until the next call; on error req's contents are unspecified.
func (r *Reader) ReadRequest(req *Request) error {
	body, err := r.readFrame()
	if err != nil {
		return err
	}
	if len(body) < 1 {
		return fmt.Errorf("wire: empty request frame")
	}
	*req = Request{Op: Op(body[0] &^ OpFlagTraced)}
	if body[0]&OpFlagTraced != 0 {
		if len(body) < 1+TraceContextLen {
			return fmt.Errorf("wire: traced %v frame %d bytes, too short for a trace context", req.Op, len(body))
		}
		copy(req.Trace.ID[:], body[1:])
		req.Trace.Flags = TraceFlags(body[1+len(req.Trace.ID)])
		if err := req.Trace.validate(); err != nil {
			return err
		}
		req.Traced = true
		body = body[1+TraceContextLen:]
	} else {
		body = body[1:]
	}
	switch req.Op {
	case OpGet, OpDel, OpGetLease:
		if len(body) != 8 {
			return fmt.Errorf("wire: %v body %d bytes, want 8", req.Op, len(body))
		}
		req.Key = binary.LittleEndian.Uint64(body)
	case OpSet:
		if len(body) < 9 {
			return fmt.Errorf("wire: SET body %d bytes, want ≥9", len(body))
		}
		req.Key = binary.LittleEndian.Uint64(body)
		req.Flags = SetFlags(body[8])
		if req.Flags&^setFlagsDefined != 0 {
			return fmt.Errorf("wire: SET flags %#02x has undefined bits", byte(req.Flags))
		}
		if req.Flags&SetFlagAsync != 0 && req.Flags&SetFlagRepair == 0 {
			return fmt.Errorf("wire: SET flag ASYNC is only valid with REPAIR")
		}
		body = body[9:]
		if req.Flags&SetFlagVersioned != 0 {
			if req.Flags&SetFlagRepair == 0 {
				return fmt.Errorf("wire: SET flag VERSIONED is only valid with REPAIR")
			}
			if len(body) < 8 {
				return fmt.Errorf("wire: VERSIONED SET body lacks the version field")
			}
			req.Version = binary.LittleEndian.Uint64(body)
			body = body[8:]
		}
		if req.Flags&SetFlagLease != 0 {
			if req.Flags&SetFlagRepair != 0 {
				return fmt.Errorf("wire: SET flag LEASE is not valid with REPAIR")
			}
			if len(body) < 8 {
				return fmt.Errorf("wire: LEASE SET body lacks the token field")
			}
			req.LeaseToken = binary.LittleEndian.Uint64(body)
			if req.LeaseToken == 0 {
				return fmt.Errorf("wire: LEASE SET with a zero token")
			}
			body = body[8:]
		}
		if req.Flags&SetFlagTombstone != 0 {
			if req.Flags&SetFlagVersioned == 0 {
				return fmt.Errorf("wire: SET flag TOMBSTONE is only valid with VERSIONED")
			}
			if len(body) != 0 {
				return fmt.Errorf("wire: TOMBSTONE SET carries a value")
			}
		}
		req.Value = body
	case OpHint:
		if len(body) < 1 {
			return fmt.Errorf("wire: HINT body %d bytes, want ≥1", len(body))
		}
		al := int(body[0])
		body = body[1:]
		if al == 0 {
			return fmt.Errorf("wire: HINT with an empty target address")
		}
		if len(body) < al+17 {
			return fmt.Errorf("wire: HINT body truncated (target %d bytes, %d remain)", al, len(body))
		}
		req.Target = string(body[:al])
		body = body[al:]
		req.Key = binary.LittleEndian.Uint64(body)
		switch body[8] {
		case 0:
		case 1:
			req.Tombstone = true
		default:
			return fmt.Errorf("wire: HINT tombstone byte %#02x, want 0 or 1", body[8])
		}
		req.Version = binary.LittleEndian.Uint64(body[9:])
		if req.Version == 0 {
			return fmt.Errorf("wire: HINT with a zero version")
		}
		req.Value = body[17:]
		if req.Tombstone && len(req.Value) != 0 {
			return fmt.Errorf("wire: tombstone HINT carries a value")
		}
	case OpStats:
		if len(body) != 1 {
			return fmt.Errorf("wire: STATS body %d bytes, want 1", len(body))
		}
		req.Detail = body[0] != 0
	case OpRehash, OpKeys, OpMembers:
		if len(body) != 0 {
			return fmt.Errorf("wire: %v body %d bytes, want 0", req.Op, len(body))
		}
	case OpMetrics:
		if len(body) != 1 {
			return fmt.Errorf("wire: METRICS body %d bytes, want 1", len(body))
		}
		req.MetricsFlags = MetricsFlags(body[0])
		if err := req.MetricsFlags.validate(); err != nil {
			return err
		}
	case OpTopology:
		t, err := parseTopology(body)
		if err != nil {
			return err
		}
		// An empty MEMBERS response is legitimate (a fresh server knows no
		// topology), but an empty *push* is not: adopting it would leave
		// the receiver holding a high epoch over no members, from which
		// any later epoch could "win" — a rollback of the monotonic-epoch
		// invariant through one malformed frame.
		if len(t.Members) == 0 {
			return fmt.Errorf("wire: TOPOLOGY push with no members")
		}
		req.Topology = t
	default:
		return fmt.Errorf("wire: unknown request op %d", byte(req.Op))
	}
	return nil
}

// ReadResponse decodes the next response frame into resp (client side),
// overwriting every field. Value and Keys alias the stream buffer or
// internal ones, valid until the next call; on error resp's contents are
// unspecified.
func (r *Reader) ReadResponse(resp *Response) error {
	body, err := r.readFrame()
	if err != nil {
		return err
	}
	if len(body) < 9 {
		return fmt.Errorf("wire: response frame %d bytes, want ≥9 (status + epoch)", len(body))
	}
	*resp = Response{Status: Status(body[0]), Epoch: binary.LittleEndian.Uint64(body[1:])}
	body = body[9:]
	switch resp.Status {
	case StatusHit:
		if len(body) < 8 {
			return fmt.Errorf("wire: HIT body %d bytes, want ≥8 (version)", len(body))
		}
		resp.Version = binary.LittleEndian.Uint64(body)
		resp.Value = body[8:]
	case StatusMiss:
	case StatusOK:
		// Empty (DEL/REHASH replies may omit the fields), evicted byte
		// alone, or evicted byte + stored version.
		switch len(body) {
		case 0:
		case 1:
			resp.Evicted = body[0] != 0
		case 9:
			resp.Evicted = body[0] != 0
			resp.Version = binary.LittleEndian.Uint64(body[1:])
		default:
			return fmt.Errorf("wire: OK body %d bytes, want 0, 1 or 9", len(body))
		}
	case StatusVersionStale:
		if len(body) != 8 {
			return fmt.Errorf("wire: VERSION_STALE body %d bytes, want 8", len(body))
		}
		resp.Version = binary.LittleEndian.Uint64(body)
	case StatusLease:
		if len(body) < 13 {
			return fmt.Errorf("wire: LEASE body %d bytes, want ≥13 (token + ttl + stale)", len(body))
		}
		resp.LeaseToken = binary.LittleEndian.Uint64(body)
		ms := binary.LittleEndian.Uint32(body[8:])
		if ms == 0 {
			return fmt.Errorf("wire: LEASE with a zero TTL")
		}
		resp.LeaseTTL = time.Duration(ms) * time.Millisecond
		switch body[12] {
		case 0:
			if len(body) != 13 {
				return fmt.Errorf("wire: LEASE body %d bytes, want 13 without a stale hint", len(body))
			}
		case 1:
			if resp.LeaseToken != 0 {
				return fmt.Errorf("wire: LEASE grant cannot carry a stale hint")
			}
			if len(body) < 21 {
				return fmt.Errorf("wire: stale LEASE body %d bytes, want ≥21 (hint version)", len(body))
			}
			resp.Stale = true
			resp.Version = binary.LittleEndian.Uint64(body[13:])
			resp.Value = body[21:]
		default:
			return fmt.Errorf("wire: LEASE stale byte %#02x, want 0 or 1", body[12])
		}
	case StatusLeaseLost:
		if len(body) != 8 {
			return fmt.Errorf("wire: LEASE_LOST body %d bytes, want 8", len(body))
		}
		resp.Version = binary.LittleEndian.Uint64(body)
	case StatusStats:
		st, err := parseStats(body)
		if err != nil {
			return err
		}
		resp.Stats = st
	case StatusError:
		resp.Err = string(body)
	case StatusKeys:
		if len(body) < 4 {
			return fmt.Errorf("wire: keys payload %d bytes, want ≥4", len(body))
		}
		n := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if len(body) != keyRecLen*n {
			return fmt.Errorf("wire: keys payload %d bytes, want %d", len(body), keyRecLen*n)
		}
		if n > 0 {
			// Like Value, Keys aliases reader-owned memory valid until
			// the next call — KEYS streams reuse one buffer per chunk.
			if cap(r.keys) < n {
				r.keys = make([]KeyRec, n)
			}
			resp.Keys = r.keys[:n]
			for i := range resp.Keys {
				rec := body[keyRecLen*i:]
				switch rec[16] {
				case 0, 1:
				default:
					return fmt.Errorf("wire: keys record %d tombstone byte %#02x, want 0 or 1", i, rec[16])
				}
				resp.Keys[i] = KeyRec{
					Key:       binary.LittleEndian.Uint64(rec),
					Version:   binary.LittleEndian.Uint64(rec[8:]),
					Tombstone: rec[16] == 1,
				}
			}
		}
	case StatusMembers:
		t, err := parseTopology(body)
		if err != nil {
			return err
		}
		resp.Topology = t
	case StatusMetrics:
		m, err := parseMetrics(body)
		if err != nil {
			return err
		}
		resp.Metrics = m
	default:
		return fmt.Errorf("wire: unknown response status %d", byte(resp.Status))
	}
	return nil
}

func parseStats(body []byte) (*Stats, error) {
	if len(body) < statsFixedLen+4 {
		return nil, fmt.Errorf("wire: stats payload %d bytes, want ≥%d", len(body), statsFixedLen+4)
	}
	s := &Stats{}
	off := 0
	for _, f := range statsFields {
		*f.get(s) = binary.LittleEndian.Uint64(body[off:])
		off += 8
	}
	s.Migrating = body[off] != 0
	off++
	nShards := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if len(body)-off != 4*8*nShards {
		return nil, fmt.Errorf("wire: stats shard payload %d bytes, want %d", len(body)-off, 4*8*nShards)
	}
	if nShards > 0 {
		s.Shards = make([]ShardStat, nShards)
		for i := range s.Shards {
			s.Shards[i].Hits = binary.LittleEndian.Uint64(body[off:])
			s.Shards[i].Misses = binary.LittleEndian.Uint64(body[off+8:])
			s.Shards[i].Evictions = binary.LittleEndian.Uint64(body[off+16:])
			s.Shards[i].Len = binary.LittleEndian.Uint64(body[off+24:])
			off += 32
		}
	}
	return s, nil
}
