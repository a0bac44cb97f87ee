package engine

import (
	"bytes"
	"fmt"
	"io"

	"memorydb/internal/resp"
)

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
