// Replication messages. A replica dials the primary's ordinary listen
// address; its first frame is a ReplHello instead of a Hello, and the
// server routes on the frame's tag (MsgKind). After the primary's
// ReplHelloReply the connection becomes a one-way statement stream
// (ReplBatch frames, primary → replica) with an ack stream (ReplAck and
// ReplFence frames, replica → primary) riding the other direction; both
// sides use the same framing and codec as the rest of the protocol. A
// snapshot is statements too, in ReplBatch frames, and every statement
// travels byte for byte.
package wire

import (
	"encoding/binary"

	"authdb/internal/engine"
)

// ReplHello opens a replication stream: the replica announces the
// protocol version, authenticates with the primary's admin token, and
// states the last LSN it has durably applied (zero for an empty
// replica). The primary decides how to bring it current.
type ReplHello struct {
	Proto int
	Token string
	// From is the replica's last durably applied LSN; the stream resumes
	// at From+1.
	From uint64
	// Epoch is the highest fencing epoch the follower has adopted. A
	// primary whose own epoch is lower has been superseded: it must
	// demote itself instead of serving the stream. Every engine starts
	// in epoch 1, and no build that speaks this protocol sends zero.
	Epoch uint64
	// Leader, when set, names the wire address the follower believes the
	// current leader serves on — a hint a fenced ex-primary can hand to
	// its own clients.
	Leader string
}

func (m *ReplHello) walk(w walker) walker {
	return w.fields(KindReplHello, &m.Proto, &m.Token, &m.From, &m.Epoch, &m.Leader)
}

// ReplHelloReply accepts a replication stream, or refuses it with
// Error. The batch stream follows immediately after this frame.
type ReplHelloReply struct {
	// Snapshot says SnapshotStmts snapshot statements follow the reply,
	// in ReplBatch frames with From zero, which the replica installs as
	// one state before it applies the stream. Without it the replica's
	// position is recent enough that the stream alone brings it current.
	Snapshot bool
	// SnapshotStmts counts the statements of the primary's complete state
	// that follow a snapshot reply, and SnapshotLSN is the LSN they
	// embody — the stream resumes at SnapshotLSN+1.
	SnapshotStmts uint64
	SnapshotLSN   uint64
	// Gen is the primary's snapshot generation at handshake, for
	// diagnostics.
	Gen   uint64
	Error *Error
	// Epoch is the primary's current fencing epoch and EpochHist its full
	// (epoch, start-LSN) history; the follower adopts both. A follower
	// whose own epoch is higher must refuse the stream and fence this
	// primary instead.
	Epoch     uint64
	EpochHist []engine.EpochEntry
	// Diverged reports that the follower's history forked from the
	// primary's: the follower holds statements past Fork that the
	// primary's history does not contain (it accepted them under a stale
	// epoch). The follower must quarantine its suffix past Fork before
	// installing the snapshot that follows — the reply is always a
	// snapshot reply when Diverged is set.
	Diverged bool
	Fork     uint64
}

func (m *ReplHelloReply) walk(w walker) walker {
	return w.fields(KindReplHelloReply, &m.Snapshot, &m.SnapshotStmts, &m.SnapshotLSN, &m.Gen,
		&m.Error, &m.Epoch, &m.EpochHist, &m.Diverged, &m.Fork)
}

// ReplBatch carries a contiguous run of durably committed statements:
// Stmts[i] has LSN From+i. The replica applies them in order and must
// never see a gap — a hole is a protocol error that forces reconnect.
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

func (m *ReplBatch) walk(w walker) walker {
	return w.fields(KindReplBatch, &m.From, &m.Epoch, &m.SentUnixNano, &m.Stmts)
}

// replBatchHead bounds the bytes of a ReplBatch payload before its
// statements: the tag and four varints.
const replBatchHead = 1 + 4*binary.MaxVarintLen64

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

// ReplAck reports the replica's durable progress; the primary uses it
// for lag accounting and to decide when a graceful shutdown may stop
// waiting for a follower.
type ReplAck struct {
	// Applied is the highest LSN the replica has durably applied.
	Applied uint64
}

func (m *ReplAck) walk(w walker) walker { return w.fields(KindReplAck, &m.Applied) }

// ReplFence travels follower → primary on the ack stream when the
// follower has adopted an epoch higher than the one stamped on the
// stream: the sender is a stale primary and must demote itself to
// read-only. Epoch is the follower's (higher) epoch; Leader, when
// known, is where the current leader serves.
type ReplFence struct {
	Epoch  uint64
	Leader string
}

func (m *ReplFence) walk(w walker) walker { return w.fields(KindReplFence, &m.Epoch, &m.Leader) }
