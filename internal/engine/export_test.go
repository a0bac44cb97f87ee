package engine

// execBatch is ExecBatch resolving the batch itself, as the node does.
func (e *Engine) execBatch(batch [][][]byte) Result {
	cmds := make([]*Command, len(batch))
	for i, argv := range batch {
		cmds[i] = lookupArgv(argv)
	}
	return e.ExecBatch(batch, cmds)
}
