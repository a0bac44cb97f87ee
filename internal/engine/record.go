package engine

import (
	"bytes"
	"fmt"
	"io"

	"memorydb/internal/resp"
)

// EncodeRecord concatenates encoded effect commands into one replication
// record payload — the unit MemoryDB chunks the replication stream into
// before appending to the transaction log (§3.1).
func EncodeRecord(effects [][]byte) []byte {
	var n int
	for _, e := range effects {
		n += len(e)
	}
	out := make([]byte, 0, n)
	for _, e := range effects {
		out = append(out, e...)
	}
	return out
}

// AppendRecord appends one mutation's encoded effects onto an existing
// record payload, returning the extended slice. Group commit uses it to
// coalesce many mutations into a single log entry: RESP command framing is
// self-delimiting, so concatenated records decode and apply exactly like a
// single large record, and a replica applies the whole combined payload as
// one atomic unit (one workloop apply task per entry).
func AppendRecord(dst []byte, effects [][]byte) []byte {
	for _, e := range effects {
		dst = append(dst, e...)
	}
	return dst
}

// DecodeRecord parses a record payload back into its command argvs. It
// runs once per log entry on the replica apply path, so the reader's
// buffer is sized to the record rather than to a socket.
func DecodeRecord(record []byte) ([][][]byte, error) {
	r := resp.NewReaderSize(bytes.NewReader(record), len(record))
	var cmds [][][]byte
	for {
		argv, err := r.ReadCommand()
		if err == io.EOF {
			return cmds, nil
		}
		if err != nil {
			return nil, fmt.Errorf("engine: bad replication record: %w", err)
		}
		cmds = append(cmds, argv)
	}
}
