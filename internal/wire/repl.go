// Replication messages. A replica dials the primary's ordinary listen
// address; its first frame is a ReplHello instead of a Hello, and the
// server routes on the "kind" field (MsgKind) — regular handshakes have
// none. After the primary's ReplHelloReply the connection becomes a
// one-way statement stream (ReplBatch frames, primary → replica) with
// an ack stream (ReplAck frames, replica → primary) riding the other
// direction; both sides use the same framing as the rest of the
// protocol. A snapshot is statements too, in ReplBatch frames.
//
// ReplBatch is the one replication message whose size follows the
// data, and its statements hold whatever bytes a string constant holds,
// so it is a binary frame (AppendReplBatch, DecodeReplBatch) carrying
// every byte as it is; the other messages are JSON.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"slices"
	"strconv"
)

// Replication message kinds, carried in the "kind" field.
const (
	KindReplHello = "repl_hello"
	KindReplBatch = "repl_batch"
	KindReplAck   = "repl_ack"
	KindReplFence = "repl_fence"
)

// MsgKind probes a frame's kind without committing to a message type: a
// binary ReplBatch by its tag byte, any other message by its JSON
// "kind" field. It returns "" for frames without one (every
// pre-replication message, notably the regular Hello) or for payloads
// that are neither.
func MsgKind(payload []byte) string {
	if len(payload) > 0 && payload[0] == replBatchTag {
		return KindReplBatch
	}
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(payload, &probe); err != nil {
		return ""
	}
	return probe.Kind
}

// ReplHello opens a replication stream: the replica announces the
// protocol version, authenticates with the primary's admin token, and
// states the last LSN it has durably applied (zero for an empty
// replica). The primary decides how to bring it current.
type ReplHello struct {
	Kind  string `json:"kind"` // KindReplHello
	Proto int    `json:"proto"`
	Token string `json:"token,omitempty"`
	// From is the replica's last durably applied LSN; the stream resumes
	// at From+1.
	From uint64 `json:"from"`
	// Name labels the follower in the primary's metrics and \stats.
	Name string `json:"name,omitempty"`
	// Epoch is the highest fencing epoch the follower has adopted. A
	// primary whose own epoch is lower has been superseded: it must
	// demote itself instead of serving the stream. Every engine starts
	// in epoch 1, and no build that speaks this protocol sends zero.
	Epoch uint64 `json:"epoch,omitempty"`
	// Leader, when set, names the wire address the follower believes the
	// current leader serves on — a hint a fenced ex-primary can hand to
	// its own clients.
	Leader string `json:"leader,omitempty"`
}

// EpochEntry is one step of the cluster's fencing-epoch history: the
// epoch number and the LSN at which it began (the position of the
// promoting node at promotion). Followers adopt the primary's history so
// a later rejoin can locate the fork point of any stale epoch.
type EpochEntry struct {
	Epoch    uint64 `json:"epoch"`
	StartLSN uint64 `json:"start_lsn"`
}

// Modes a primary answers a ReplHello with.
const (
	// ReplModeTail: the replica's position is recent enough that the
	// stream alone brings it current; no snapshot follows.
	ReplModeTail = "tail"
	// ReplModeSnapshot: SnapshotStmts snapshot statements follow the
	// reply, in ReplBatch frames with From zero; the replica installs
	// them as one state before applying the stream.
	ReplModeSnapshot = "snapshot"
)

// ReplHelloReply accepts (or rejects) a replication stream. On success
// Mode says whether snapshot batches come first; the batch stream
// follows immediately after this frame.
type ReplHelloReply struct {
	OK   bool   `json:"ok"`
	Mode string `json:"mode,omitempty"`
	// SnapshotStmts counts the statements of the primary's complete state
	// that follow in snapshot mode, and SnapshotLSN is the LSN they
	// embody — the stream resumes at SnapshotLSN+1.
	SnapshotStmts uint64 `json:"snapshot_stmts,omitempty"`
	SnapshotLSN   uint64 `json:"snapshot_lsn,omitempty"`
	// Gen is the primary's snapshot generation at handshake, for
	// diagnostics.
	Gen   uint64 `json:"gen,omitempty"`
	Error *Error `json:"error,omitempty"`
	// Epoch is the primary's current fencing epoch and EpochHist its full
	// (epoch, start-LSN) history; the follower adopts both. A follower
	// whose own epoch is higher must refuse the stream and fence this
	// primary instead.
	Epoch     uint64       `json:"epoch,omitempty"`
	EpochHist []EpochEntry `json:"epoch_hist,omitempty"`
	// Diverged reports that the follower's history forked from the
	// primary's: the follower holds statements past Fork that the
	// primary's history does not contain (it accepted them under a stale
	// epoch). The follower must quarantine its suffix past Fork before
	// installing the snapshot that follows — the reply is always in
	// snapshot mode when Diverged is set.
	Diverged bool   `json:"diverged,omitempty"`
	Fork     uint64 `json:"fork,omitempty"`
}

// ReplBatch carries a contiguous run of durably committed statements:
// Stmts[i] has LSN From+i. The replica applies them in order and must
// never see a gap — a hole is a protocol error that forces reconnect.
// Its frame is binary (AppendReplBatch):
//
//	tag    byte 0xff
//	from   uvarint
//	epoch  uvarint
//	sent   varint (zigzag)
//	stmts  n uvarint, n × str
//
// with str as in a Response: a uvarint length and that many bytes.
type ReplBatch struct {
	// From is the LSN of Stmts[0]. LSNs start at 1, so zero marks
	// snapshot statements, which follow only a snapshot-mode reply.
	From  uint64
	Stmts []string
	// Epoch is the epoch the primary committed these statements under; a
	// follower that has adopted a higher epoch rejects the batch with a
	// fatal ReplFence — the sender is a stale primary.
	Epoch uint64
	// SentUnixNano is the primary's clock when the batch was written;
	// the replica derives its seconds-behind lag from it (meaningful to
	// the extent the two clocks agree).
	SentUnixNano int64
}

// replBatchTag opens a ReplBatch payload. No JSON text starts with it
// (it is not even UTF-8), so MsgKind tells a batch from the JSON
// replication messages by its first byte.
const replBatchTag = 0xff

// replBatchHead bounds the bytes of a ReplBatch payload before its
// statements: the tag and four varints.
const replBatchHead = 1 + 4*binary.MaxVarintLen64

// AppendReplBatch appends b's payload to dst, growing dst at most once.
func AppendReplBatch(dst []byte, b *ReplBatch) []byte {
	n := replBatchHead
	for _, s := range b.Stmts {
		n += strSize(s)
	}
	dst = append(slices.Grow(dst, n), replBatchTag)
	dst = binary.AppendUvarint(dst, b.From)
	dst = binary.AppendUvarint(dst, b.Epoch)
	dst = binary.AppendVarint(dst, b.SentUnixNano)
	return appendStrs(dst, b.Stmts)
}

// ReplBatchLen returns how many of the leading stmts one ReplBatch
// payload of at most limit bytes holds, counting their encoded size; it
// is at least one when stmts is not empty, so a statement larger than
// limit still travels alone.
func ReplBatchLen(stmts []string, limit int) int {
	size := replBatchHead
	for n, s := range stmts {
		if size += strSize(s); n > 0 && size > limit {
			return n
		}
	}
	return len(stmts)
}

// DecodeReplBatch decodes a ReplBatch payload into b, replacing its
// contents. Like DecodeResponse it accepts exactly what AppendReplBatch
// writes (an empty statement list decodes as nil), checks every count
// against the bytes left, and copies the payload once: every statement
// is a substring of that copy.
func DecodeReplBatch(p []byte, b *ReplBatch) error {
	*b = ReplBatch{}
	if len(p) == 0 || p[0] != replBatchTag {
		return errors.New("wire: not a replication batch")
	}
	d := decoder{s: string(p), i: 1, ok: true}
	b.From = d.uvarint()
	b.Epoch = d.uvarint()
	b.SentUnixNano = d.varint()
	b.Stmts = d.strs()
	if d.ok && d.i != len(d.s) {
		d.fail()
	}
	if !d.ok {
		*b = ReplBatch{}
		return errors.New("wire: malformed replication batch at byte " + strconv.Itoa(d.bad))
	}
	return nil
}

// ReplAck reports the replica's durable progress; the primary uses it
// for lag accounting and to decide when a graceful shutdown may stop
// waiting for a follower.
type ReplAck struct {
	Kind string `json:"kind"` // KindReplAck
	// Applied is the highest LSN the replica has durably applied.
	Applied uint64 `json:"applied"`
}

// ReplFence travels follower → primary on the ack stream when the
// follower has adopted an epoch higher than the one stamped on the
// stream: the sender is a stale primary and must demote itself to
// read-only. Epoch is the follower's (higher) epoch; Leader, when
// known, is where the current leader serves.
type ReplFence struct {
	Kind   string `json:"kind"` // KindReplFence
	Epoch  uint64 `json:"epoch"`
	Leader string `json:"leader,omitempty"`
}
