// Package netq is the transport of the campaign work queue: a small
// stdlib-only TCP protocol that carries tasks to worker processes, on
// the coordinator's own host (loopback) or on machines that do not share
// a filesystem with it.
//
// The coordinator (cmd/thesaurus -serve or -distribute) listens on a TCP
// port, holds the campaign's task list, and hands out time-leased tasks;
// workers (cmd/thesaurus -worker -connect) pull tasks, heartbeat their
// leases while computing, and report outcomes. Results travel one of two
// ways, negotiated per connection at handshake:
//
//   - shared cache directory: the worker proves it sees the coordinator's
//     -cache-dir (it reads back a session token file the coordinator
//     wrote there) and completions carry only the RunOutput content key —
//     the artifact is already in the shared cache.
//   - artifact streaming: without that proof, the worker streams the raw
//     CRC-checked artifact bytes in the completion frame and the
//     coordinator verifies and stores them into its own cache, so report
//     assembly stays byte-identical-by-construction either way.
//
// Robustness: a lease that expires (no heartbeat) or whose connection
// drops re-queues its task for the surviving workers; workers reconnect
// with exponential backoff plus jitter; and when the last worker dies the
// coordinator degrades to in-process recompute — the queue partitions
// work, the content-addressed cache is the result channel, so a
// transport failure costs redundant work, never correctness.
//
// Wire format: length-prefixed JSON frames — a 4-byte big-endian payload
// length, then the JSON-encoded message. The first exchange is a
// versioned handshake (hello/welcome); a proto-version mismatch is
// rejected explicitly, never silently misparsed.
//
// The listener is unauthenticated: bind it to loopback or a trusted
// network only. The server is defensive about worker input — frames are
// length-capped, results for unknown task IDs are ignored, and streamed
// artifacts are stored under coordinator-derived keys (ServerOptions.
// TaskKey), never under the worker-reported name — but it cannot tell a
// wrong result from a right one; see docs/distribution.md's trust model.
package netq

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/workq"
)

// ProtoVersion is the wire-protocol version exchanged in the handshake.
// Any incompatible change to the frame layout or message schema bumps it;
// both sides reject a mismatch with an explicit error.
const ProtoVersion = 1

// MaxFrame bounds one frame's payload. Streamed run artifacts are the
// largest legitimate payload (a few MiB); the bound exists so a corrupt
// or hostile length prefix cannot make a reader allocate gigabytes.
const MaxFrame = 64 << 20

// Message types. The protocol is strict request/response from the
// worker's side: hello→welcome|reject, claim→task|wait|drained,
// result→ack; heartbeat and goodbye are fire-and-forget.
const (
	msgHello     = "hello"     // worker → coordinator: version + identity
	msgWelcome   = "welcome"   // coordinator → worker: accepted; shared-dir probe
	msgReject    = "reject"    // coordinator → worker: handshake refused (version skew)
	msgClaim     = "claim"     // worker → coordinator: give me a task
	msgTask      = "task"      // coordinator → worker: leased task
	msgWait      = "wait"      // coordinator → worker: nothing claimable now, poll again
	msgDrained   = "drained"   // coordinator → worker: every task is terminal, disconnect
	msgHeartbeat = "heartbeat" // worker → coordinator: lease extension
	msgResult    = "result"    // worker → coordinator: task outcome (+ streamed artifact)
	msgAck       = "ack"       // coordinator → worker: result recorded
	msgGoodbye   = "goodbye"   // worker → coordinator: final cache stats
)

// message is the one frame schema; Type selects which fields are
// meaningful. JSON keeps the schema debuggable and versionable; the
// artifact payload rides as base64 inside it, which is fine at the
// once-per-task frequency results travel.
type message struct {
	Type  string `json:"type"`
	Proto int    `json:"proto,omitempty"`

	// Welcome: the shared-cache-dir probe. The coordinator writes Token
	// into TokenFile under its own cache directory; a worker that reads
	// the same bytes from TokenFile under *its* cache directory has
	// proven both point at one filesystem location, so completions can
	// carry bare content keys instead of streamed artifacts.
	TokenFile string `json:"token_file,omitempty"`
	Token     string `json:"token,omitempty"`

	Task *workq.Task `json:"task,omitempty"`

	// ID names the task a heartbeat/result/ack refers to. IDs are
	// non-negative; -1 marks "no task" where 0 would be ambiguous.
	ID int `json:"id,omitempty"`

	// Err carries a task failure (result), a refusal reason (reject), or
	// a recording problem the coordinator wants the worker to know (ack).
	Err string `json:"err,omitempty"`

	// Key is the RunOutput content address of a completed task; Artifact
	// is the raw encoded artifact — present only in streaming mode.
	Key      string `json:"key,omitempty"`
	Artifact []byte `json:"artifact,omitempty"`

	Stats *workq.CacheStats `json:"stats,omitempty"`

	// WaitMS tells a waiting worker when to poll again.
	WaitMS int `json:"wait_ms,omitempty"`
}

// ErrFrameTooLarge marks a payload no frame can carry. It is permanent
// for a given message — retrying the identical send fails identically —
// so transports treat it as non-retryable.
var ErrFrameTooLarge = errors.New("netq: frame exceeds MaxFrame")

// WriteFrame writes one length-prefixed frame. An oversized payload is
// refused before any byte reaches w, so the stream stays framed.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: payload %d bytes (max %d)", ErrFrameTooLarge, len(payload), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame, rejecting payloads larger
// than MaxFrame before allocating anything.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("netq: frame length %d exceeds MaxFrame %d", n, MaxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// writeMsg frames one message.
func writeMsg(w io.Writer, m *message) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("netq: marshal %s: %w", m.Type, err)
	}
	return WriteFrame(w, data)
}

// readMsg reads and decodes one message.
func readMsg(r *bufio.Reader) (*message, error) {
	data, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	var m message
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("netq: decode frame: %w", err)
	}
	if m.Type == "" {
		return nil, fmt.Errorf("netq: frame without message type")
	}
	return &m, nil
}
