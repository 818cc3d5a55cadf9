// Package transport is SimDB's cross-process frame transport: a
// length-prefixed, CRC-framed wire codec built on the adm binary
// encoding, with per-stream credit-based flow control multiplexing the
// per-(connector, partition) streams of a hyracks job over one pooled
// TCP connection per peer pair. It implements hyracks.Transport; the
// cluster layer rides the same connections for its control plane
// (catalog sync, inserts, job dispatch, cancellation).
package transport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"simdb/internal/hyracks"
)

// Message types. Frames, end-of-stream marks, and flow-control credits
// implement the data plane; Hello opens a connection and Control
// carries the cluster layer's messages (opaque to this package).
const (
	MsgFrame byte = iota + 1
	MsgEOS
	MsgCredit
	MsgHello
	MsgControl
)

// MaxMessage bounds one wire message's payload. Frames hold at most
// one connector batch, far below this; the bound exists so a corrupt
// or hostile length prefix cannot drive an arbitrary allocation.
const MaxMessage = 64 << 20

// headerSize is the per-message framing overhead: a 4-byte big-endian
// payload length followed by a 4-byte CRC-32C of the payload.
const headerSize = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WriteMessage frames payload onto w and returns the total wire bytes
// written (header + payload).
func WriteMessage(w io.Writer, payload []byte) (int, error) {
	if len(payload) > MaxMessage {
		return 0, fmt.Errorf("transport: message payload %d exceeds limit", len(payload))
	}
	// One contiguous write: a frame must never interleave with another
	// writer's bytes, and one syscall per message beats two.
	buf := make([]byte, headerSize+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[headerSize:], payload)
	if _, err := w.Write(buf); err != nil {
		return 0, err
	}
	return len(buf), nil
}

// ReadMessage reads one framed message from r, verifying its CRC.
func ReadMessage(r io.Reader) ([]byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > MaxMessage {
		return nil, fmt.Errorf("transport: message length %d exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("transport: torn message: %w", err)
	}
	if got, want := crc32.Checksum(payload, crcTable), binary.BigEndian.Uint32(hdr[4:8]); got != want {
		return nil, fmt.Errorf("transport: CRC mismatch: got %08x want %08x", got, want)
	}
	return payload, nil
}

// appendStreamID appends a StreamID's four fields as uvarints.
func appendStreamID(dst []byte, id hyracks.StreamID) []byte {
	dst = binary.AppendUvarint(dst, id.Job)
	dst = binary.AppendUvarint(dst, uint64(id.Edge))
	dst = binary.AppendUvarint(dst, uint64(id.Prod))
	dst = binary.AppendUvarint(dst, uint64(id.Cons))
	return dst
}

// decodeStreamID reads a StreamID and returns the remaining bytes.
func decodeStreamID(buf []byte) (hyracks.StreamID, []byte, error) {
	var id hyracks.StreamID
	var fields [4]uint64
	for i := range fields {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			return id, nil, fmt.Errorf("transport: truncated stream id")
		}
		fields[i] = v
		buf = buf[n:]
	}
	id.Job = fields[0]
	id.Edge = int(fields[1])
	id.Prod = int(fields[2])
	id.Cons = int(fields[3])
	return id, buf, nil
}

// EncodeFramePayload builds a MsgFrame payload: type byte, stream id,
// tuple count, then each tuple as hyracks.AppendTuple encodes it (a
// column count followed by its adm-encoded values).
func EncodeFramePayload(id hyracks.StreamID, tuples []hyracks.Tuple) []byte {
	// Size hint: framing fields are small; tuple payload dominates.
	n := 32
	for _, t := range tuples {
		n += 2 + t.EncodedSize()
	}
	dst := make([]byte, 0, n)
	dst = append(dst, MsgFrame)
	dst = appendStreamID(dst, id)
	dst = binary.AppendUvarint(dst, uint64(len(tuples)))
	for _, t := range tuples {
		dst = hyracks.AppendTuple(dst, t)
	}
	return dst
}

// DecodeFramePayload parses a MsgFrame payload (including its leading
// type byte) back into a stream id and tuple batch.
func DecodeFramePayload(payload []byte) (hyracks.StreamID, []hyracks.Tuple, error) {
	var id hyracks.StreamID
	if len(payload) == 0 || payload[0] != MsgFrame {
		return id, nil, fmt.Errorf("transport: not a frame payload")
	}
	id, rest, err := decodeStreamID(payload[1:])
	if err != nil {
		return id, nil, err
	}
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return id, nil, fmt.Errorf("transport: truncated tuple count")
	}
	rest = rest[n:]
	if count > uint64(len(rest))+1 {
		// Each tuple costs at least one byte; reject counts a corrupt
		// message could not honestly carry before allocating for them.
		return id, nil, fmt.Errorf("transport: tuple count %d exceeds payload", count)
	}
	tuples := make([]hyracks.Tuple, 0, count)
	for i := uint64(0); i < count; i++ {
		t, n, err := hyracks.DecodeTuple(rest)
		if err != nil {
			return id, nil, fmt.Errorf("transport: tuple %d: %w", i, err)
		}
		rest = rest[n:]
		tuples = append(tuples, t)
	}
	if len(rest) != 0 {
		return id, nil, fmt.Errorf("transport: %d trailing bytes after frame", len(rest))
	}
	return id, tuples, nil
}

// encodeEOS builds a MsgEOS payload.
func encodeEOS(id hyracks.StreamID) []byte {
	dst := make([]byte, 0, 24)
	dst = append(dst, MsgEOS)
	return appendStreamID(dst, id)
}

// encodeCredit builds a MsgCredit payload returning n credits.
func encodeCredit(id hyracks.StreamID, n int) []byte {
	dst := make([]byte, 0, 28)
	dst = append(dst, MsgCredit)
	dst = appendStreamID(dst, id)
	return binary.AppendUvarint(dst, uint64(n))
}

// encodeHello builds the MsgHello sent once when a connection opens:
// the dialing node's id and its own listen address (so the coordinator
// can broadcast the peer map).
func encodeHello(node int, addr string) []byte {
	dst := make([]byte, 0, 16+len(addr))
	dst = append(dst, MsgHello)
	dst = binary.AppendUvarint(dst, uint64(node))
	dst = binary.AppendUvarint(dst, uint64(len(addr)))
	return append(dst, addr...)
}

// decodeHello parses a MsgHello payload.
func decodeHello(payload []byte) (node int, addr string, err error) {
	if len(payload) == 0 || payload[0] != MsgHello {
		return 0, "", fmt.Errorf("transport: expected hello")
	}
	rest := payload[1:]
	v, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, "", fmt.Errorf("transport: truncated hello node")
	}
	rest = rest[n:]
	l, n := binary.Uvarint(rest)
	if n <= 0 || l > uint64(len(rest[n:])) {
		return 0, "", fmt.Errorf("transport: truncated hello address")
	}
	return int(v), string(rest[n : n+int(l)]), nil
}

// encodeControl builds a MsgControl payload: the cluster-defined kind
// byte followed by an opaque body.
func encodeControl(kind byte, body []byte) []byte {
	dst := make([]byte, 0, 2+len(body))
	dst = append(dst, MsgControl, kind)
	return append(dst, body...)
}
