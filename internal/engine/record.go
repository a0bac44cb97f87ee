package engine

import (
	"fmt"

	"memorydb/internal/resp"
)

// DecodeRecord parses a record payload back into its command argvs. It
// runs once per log entry on every path that consumes the log, so it
// copies nothing: each argument is a capped view of record (b[:m:m]), and
// the argvs are windows of one slice of them. Exec and Apply copy any
// argument bytes they keep, which is what makes the views safe. It
// accepts what resp.Reader.ReadCommand accepts, inline commands included,
// except that a record ending inside a command is an error rather than
// the end of the record.
func DecodeRecord(record []byte) ([][][]byte, error) {
	var cmds [][][]byte
	var args [][]byte
	for b := record; len(b) > 0; {
		start := len(args)
		var err error
		if args, b, err = resp.ParseCommand(args, b); err != nil {
			return nil, fmt.Errorf("engine: bad replication record: %w", err)
		}
		cmds = append(cmds, args[start:len(args):len(args)])
	}
	return cmds, nil
}
