package consensus

import "repro/internal/simnet"

// Read-only views of a node's Raft state for the tests. Nothing outside
// this package reads them: a run's safety is judged from the events it
// publishes, not from node fields.

// Term returns the current term.
func (n *Node) Term() uint64 { return n.currentTerm }

// Leader returns the last known leader's ID ("" if unknown).
func (n *Node) Leader() simnet.NodeID { return n.leaderID }

// CommitIndex returns the highest committed log index.
func (n *Node) CommitIndex() uint64 { return n.commitIndex }

// CommittedCommands returns a copy of the committed command prefix, in
// log order.
func (n *Node) CommittedCommands() []Command {
	out := make([]Command, 0, n.commitIndex)
	for i := uint64(1); i <= n.commitIndex; i++ {
		out = append(out, n.log[i].Cmd)
	}
	return out
}
