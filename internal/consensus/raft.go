// Package consensus implements Raft (leader election, log replication,
// commitment) as the coordination kernel for groups of edge nodes. The
// paper argues that resilient IoT requires control and coordination
// facilities at the software-component level, without a central point of
// failure (§V): an edge group running consensus keeps making control
// decisions while any minority of its members — or the cloud uplink —
// is unavailable, which is exactly the property the Figure 3 benchmark
// measures.
//
// Persistence model: each Node keeps its Raft persistent state
// (currentTerm, votedFor, log) across simulated crashes, mirroring a
// real deployment's stable storage; volatile state (role, leadership,
// indices) is rebuilt on recovery.
package consensus

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// Command is an opaque state-machine command carried in the log.
type Command any

// ApplyFunc consumes committed commands in log order.
type ApplyFunc func(index uint64, cmd Command)

// Role is a Raft role.
type Role int

// Raft roles.
const (
	Follower Role = iota + 1
	Candidate
	Leader
)

func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Config tunes timing. Zero fields take defaults suited to edge LANs.
type Config struct {
	// ElectionTimeoutMin/Max bound the randomized election timeout.
	ElectionTimeoutMin time.Duration
	ElectionTimeoutMax time.Duration
	// HeartbeatInterval is the leader's AppendEntries period.
	HeartbeatInterval time.Duration
	// CheckQuorum makes a leader surrender leadership when it has not
	// heard AppendEntries responses from a quorum within
	// ElectionTimeoutMax: a leader stranded on the minority side of a
	// partition stops believing its own lease instead of serving stale
	// reads/placements forever. Off by default.
	CheckQuorum bool
}

func (c Config) withDefaults() Config {
	if c.ElectionTimeoutMin == 0 {
		c.ElectionTimeoutMin = 150 * time.Millisecond
	}
	if c.ElectionTimeoutMax == 0 {
		c.ElectionTimeoutMax = 300 * time.Millisecond
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 50 * time.Millisecond
	}
	return c
}

// maxEntriesPerMessage caps entries in one AppendEntries.
const maxEntriesPerMessage = 64

// entry is one log slot.
type entry struct {
	Term uint64
	Cmd  Command
}

// appendEntriesMsg is AppendEntries with its entries: the one raft
// message that carries a payload, so the one that stays boxed.
type appendEntriesMsg struct {
	Term         uint64
	Leader       simnet.NodeID
	PrevLogIndex uint64
	PrevLogTerm  uint64
	Entries      []entry
	LeaderCommit uint64
}

// RegisterWire registers the protocol's message types with a wire
// codec (e.g. realnet's datagram codec). Applications must additionally
// register the concrete types of the commands they propose.
func RegisterWire(register func(any)) {
	register(appendEntriesMsg{})
	register(entry{})
}

func (m appendEntriesMsg) Size() int { return 56 + 64*len(m.Entries) }

// Envelope kinds: every fixed-size protocol message travels as a
// simnet.Envelope; only entry-carrying AppendEntries is boxed. Field
// use is noted per kind ("last log" and "prev log" are index B and
// term C), then the accounted wire size.
const (
	envPreVote         uint16 = iota + 1 // A=term it would start, S=candidate, B/C=last log; 48 B
	envPreVoteResp                       // A=term, Flag=granted; 16 B
	envRequestVote                       // A=term, S=candidate, B/C=last log; 48 B
	envRequestVoteResp                   // A=term, Flag=granted; 16 B
	envAppendHeartbeat                   // no entries: A=term, S=leader, B/C=prev log, D=commit; 56 B
	envAppendResp                        // A=term, Flag=success, B=match index; 24 B
)

// Node is one Raft participant. Construct with New.
type Node struct {
	ep    simnet.Port
	peers []simnet.NodeID // all group members including self
	cfg   Config
	apply ApplyFunc

	// Persistent state (survives crashes — stable storage).
	currentTerm uint64
	votedFor    simnet.NodeID
	log         []entry // log[0] is a sentinel; real entries start at 1

	// Volatile state.
	role        Role
	leaderID    simnet.NodeID
	commitIndex uint64
	lastApplied uint64
	// nextIndex/matchIndex are indexed by peer position in the sorted
	// peers slice (see peerIdx); they are touched on every append and
	// every ack, and a slice index beats a map hash there.
	nextIndex  []uint64
	matchIndex []uint64
	selfIdx    int // this node's position in peers
	votes      map[simnet.NodeID]bool
	preVotes   map[simnet.NodeID]bool
	// lastLeaderContact is when a valid AppendEntries last arrived;
	// pre-votes are refused while a leader is recent.
	lastLeaderContact time.Duration
	// peerContact is, on the leader, when each peer's last
	// AppendEntries response arrived (indexed like matchIndex).
	// QuorumContact derives quorum connectivity from it.
	peerContact    []time.Duration
	contactScratch []time.Duration

	electionTimer *simnet.Timer
	heartbeat     *simnet.Ticker
	started       bool
	// electionFn is n.onElectionTimeout bound once at construction;
	// resetElectionTimer runs on every heartbeat, and re-binding the
	// method value there would allocate a closure each time.
	electionFn func()
	// matchScratch is reused by advanceCommit to rank match indices
	// without a per-call allocation.
	matchScratch []uint64

	bus *obs.Bus
	// proposedAt tracks when each still-uncommitted proposal was
	// accepted, populated only while the bus has subscribers, so commit
	// latency can be published when advanceCommit passes the index.
	proposedAt map[uint64]time.Duration
}

// New constructs a Raft node over ep, coordinating with peers (which
// must include the node's own ID). apply receives committed commands;
// it may be nil.
func New(ep simnet.Port, peers []simnet.NodeID, cfg Config, apply ApplyFunc) *Node {
	ps := make([]simnet.NodeID, len(peers))
	copy(ps, peers)
	slices.Sort(ps)
	n := &Node{
		ep:    ep,
		peers: ps,
		selfIdx: func() int {
			for i, id := range ps {
				if id == ep.ID() {
					return i
				}
			}
			return -1
		}(),
		cfg:   cfg.withDefaults(),
		apply: apply,
		log:   make([]entry, 1), // sentinel
		role:  Follower,
	}
	n.electionFn = n.onElectionTimeout
	ep.OnMessage(n.handle)
	ep.OnEnvelope(n.handleEnv)
	ep.OnUp(n.onRecover)
	ep.OnDown(n.onCrash)
	return n
}

// Start arms the node's election timer.
func (n *Node) Start() {
	n.started = true
	n.becomeFollower(n.currentTerm, "")
}

// Role returns the node's current role.
func (n *Node) Role() Role { return n.role }

// SetBus attaches an observability bus. Elections are published as
// "raft.election", leadership wins as "raft.leader", and per-proposal
// commit latency as "raft.commit" spans. A nil bus keeps the node
// silent.
func (n *Node) SetBus(bus *obs.Bus) { n.bus = bus }

// Propose appends a command if this node is the leader. It returns the
// assigned log index and true, or 0 and false when not leader (callers
// should redirect to the leader).
func (n *Node) Propose(cmd Command) (uint64, bool) {
	if n.role != Leader || !n.ep.Up() {
		return 0, false
	}
	n.log = append(n.log, entry{Term: n.currentTerm, Cmd: cmd})
	idx := n.lastLogIndex()
	if n.bus.Active() {
		if n.proposedAt == nil {
			n.proposedAt = make(map[uint64]time.Duration)
		}
		n.proposedAt[idx] = n.bus.Now()
	}
	n.matchIndex[n.selfIdx] = idx
	n.broadcastAppend()
	// Single-node groups commit immediately.
	n.advanceCommit()
	return idx, true
}

// --- role transitions ---

func (n *Node) onCrash() {
	// Volatile state is lost. Timers are endpoint-scoped and silent
	// while down; explicit stop keeps the queue clean.
	n.stopTimers()
}

func (n *Node) onRecover() {
	if !n.started {
		return
	}
	n.commitIndex = 0
	n.lastApplied = 0
	// Restart the quorum-contact clock: a node that was down for
	// longer than the island grace window should get a fresh grace
	// period on recovery, not flap straight into island mode. Behavior-
	// neutral otherwise — pre-vote refusal reads this only while
	// leaderID is set, and becomeFollower below clears it.
	n.lastLeaderContact = n.ep.Now()
	n.becomeFollower(n.currentTerm, "")
}

func (n *Node) stopTimers() {
	if n.electionTimer != nil {
		n.electionTimer.Stop()
		n.electionTimer = nil
	}
	if n.heartbeat != nil {
		n.heartbeat.Stop()
		n.heartbeat = nil
	}
}

func (n *Node) becomeFollower(term uint64, leader simnet.NodeID) {
	if term > n.currentTerm {
		n.currentTerm = term
		n.votedFor = ""
	}
	n.role = Follower
	n.leaderID = leader
	n.preVotes = nil
	n.proposedAt = nil // commit latency is a leader-side measurement
	if n.heartbeat != nil {
		n.heartbeat.Stop()
		n.heartbeat = nil
	}
	n.resetElectionTimer()
}

func (n *Node) resetElectionTimer() {
	if n.electionTimer != nil {
		n.electionTimer.Stop()
	}
	span := n.cfg.ElectionTimeoutMax - n.cfg.ElectionTimeoutMin
	d := n.cfg.ElectionTimeoutMin
	if span > 0 {
		d += time.Duration(n.ep.Rand().Int63n(int64(span)))
	}
	n.electionTimer = n.ep.After(d, n.electionFn)
}

// onElectionTimeout starts an election, preceded by a PreVote round
// (Raft §9.6): a node that timed out — e.g. isolated by a partition —
// first asks peers whether they *would* vote for it without touching
// any terms; while peers still hear a healthy leader they refuse, so
// the node's term never inflates and its return does not depose the
// leader.
func (n *Node) onElectionTimeout() {
	n.preVotes = map[simnet.NodeID]bool{n.ep.ID(): true}
	n.resetElectionTimer()
	n.broadcastVote(envPreVote, n.currentTerm+1)
	n.maybeStartRealElection()
}

func (n *Node) maybeStartRealElection() {
	if n.preVotes == nil || len(n.preVotes) < n.quorum() {
		return
	}
	n.preVotes = nil
	n.startElection()
}

func (n *Node) startElection() {
	n.currentTerm++
	n.bus.Emit("raft.election", string(n.ep.ID()), 0, 0, "candidate at term %d", n.currentTerm)
	n.role = Candidate
	n.votedFor = n.ep.ID()
	n.leaderID = ""
	n.preVotes = nil
	n.votes = map[simnet.NodeID]bool{n.ep.ID(): true}
	n.resetElectionTimer()
	n.broadcastVote(envRequestVote, n.currentTerm)
	n.maybeWin()
}

// broadcastVote asks every peer for a (pre-)vote at term.
func (n *Node) broadcastVote(kind uint16, term uint64) {
	env := simnet.Envelope{
		Kind: kind, A: term, S: n.ep.ID(),
		B: n.lastLogIndex(), C: n.lastLogTerm(), Bytes: 48,
	}
	for _, p := range n.peers {
		if p != n.ep.ID() {
			n.ep.SendEnvelope(p, env)
		}
	}
}

func (n *Node) maybeWin() {
	if n.role != Candidate || len(n.votes) < n.quorum() {
		return
	}
	n.role = Leader
	n.leaderID = n.ep.ID()
	n.nextIndex = make([]uint64, len(n.peers))
	n.matchIndex = make([]uint64, len(n.peers))
	for i := range n.peers {
		n.nextIndex[i] = n.lastLogIndex() + 1
		n.matchIndex[i] = 0
	}
	n.matchIndex[n.selfIdx] = n.lastLogIndex()
	// Winning means a quorum just granted votes: contact is fresh.
	if n.peerContact == nil {
		n.peerContact = make([]time.Duration, len(n.peers))
	}
	for i := range n.peerContact {
		n.peerContact[i] = n.ep.Now()
	}
	if n.electionTimer != nil {
		n.electionTimer.Stop()
		n.electionTimer = nil
	}
	n.broadcastAppend()
	n.heartbeat = n.ep.Every(n.cfg.HeartbeatInterval, n.heartbeatTick)
	n.bus.Emit("raft.leader", string(n.ep.ID()), 0, 0, "won term %d", n.currentTerm)
}

func (n *Node) quorum() int { return len(n.peers)/2 + 1 }

// heartbeatTick is the leader's periodic duty: surrender a stale lease
// when CheckQuorum is on, then replicate.
func (n *Node) heartbeatTick() {
	if n.cfg.CheckQuorum && n.role == Leader &&
		n.ep.Now()-n.QuorumContact() > n.cfg.ElectionTimeoutMax {
		n.bus.Emit("raft.election", string(n.ep.ID()), 0, 0, "leader stepping down: quorum contact lost at term %d", n.currentTerm)
		n.becomeFollower(n.currentTerm, "")
		return
	}
	n.broadcastAppend()
}

// QuorumContact reports the last time this node was demonstrably in
// contact with a cluster quorum: for a follower or candidate, the last
// valid AppendEntries from a leader; for a leader, the quorum-th most
// recent AppendEntries response across peers (counting itself as
// always current). `now - QuorumContact()` growing beyond a grace
// window is the island-mode trigger (core wiring, DESIGN.md §9).
func (n *Node) QuorumContact() time.Duration {
	if n.role != Leader || n.peerContact == nil {
		return n.lastLeaderContact
	}
	times := n.contactScratch[:0]
	for i := range n.peers {
		if i == n.selfIdx {
			times = append(times, n.ep.Now())
		} else {
			times = append(times, n.peerContact[i])
		}
	}
	slices.Sort(times)
	n.contactScratch = times
	// The quorum-th newest of an ascending sort is times[len-quorum].
	return times[len(times)-n.quorum()]
}

func (n *Node) lastLogIndex() uint64 { return uint64(len(n.log) - 1) }

func (n *Node) lastLogTerm() uint64 { return n.log[len(n.log)-1].Term }

// --- replication ---

func (n *Node) broadcastAppend() {
	if n.role != Leader {
		return
	}
	for i := range n.peers {
		if i != n.selfIdx {
			n.sendAppend(i)
		}
	}
}

// peerIdx resolves a peer ID to its position in the sorted peers
// slice: a binary search, since a city placement group has hundreds of
// members and every AppendEntries response resolves its sender.
func (n *Node) peerIdx(id simnet.NodeID) int {
	if i, ok := slices.BinarySearch(n.peers, id); ok {
		return i
	}
	return -1
}

// sendAppend replicates to the peer at slot pi of the sorted peers.
func (n *Node) sendAppend(pi int) {
	to, next := n.peers[pi], n.nextIndex[pi]
	if next < 1 {
		next = 1
	}
	prevIdx := next - 1
	prevTerm := n.log[prevIdx].Term
	var entries []entry
	if n.lastLogIndex() >= next {
		end := next + maxEntriesPerMessage
		if end > n.lastLogIndex()+1 {
			end = n.lastLogIndex() + 1
		}
		entries = append(entries, n.log[next:end]...)
	}
	if len(entries) == 0 {
		// Heartbeat: fixed shape, so it travels allocation-free.
		n.ep.SendEnvelope(to, simnet.Envelope{
			Kind: envAppendHeartbeat, A: n.currentTerm, S: n.ep.ID(),
			B: prevIdx, C: prevTerm, D: n.commitIndex, Bytes: 56,
		})
		return
	}
	n.ep.Send(to, appendEntriesMsg{
		Term:         n.currentTerm,
		Leader:       n.ep.ID(),
		PrevLogIndex: prevIdx,
		PrevLogTerm:  prevTerm,
		Entries:      entries,
		LeaderCommit: n.commitIndex,
	})
}

func (n *Node) advanceCommit() {
	if n.role != Leader {
		return
	}
	// Find the highest index replicated on a quorum with an entry from
	// the current term.
	matches := n.matchScratch[:0]
	matches = append(matches, n.matchIndex...)
	slices.Sort(matches)
	n.matchScratch = matches
	// The k-th highest of an ascending sort is matches[len-k].
	candidate := matches[len(matches)-n.quorum()]
	if candidate > n.commitIndex && n.log[candidate].Term == n.currentTerm {
		prev := n.commitIndex
		n.commitIndex = candidate
		for i := prev + 1; i <= candidate; i++ {
			if at, ok := n.proposedAt[i]; ok {
				delete(n.proposedAt, i)
				n.bus.Publish(obs.Event{
					At: at, Dur: n.bus.Now() - at,
					Kind: "raft.commit", Node: string(n.ep.ID()),
					Detail: fmt.Sprintf("index %d term %d", i, n.currentTerm),
				})
			}
		}
		n.applyCommitted()
	}
}

func (n *Node) applyCommitted() {
	for n.lastApplied < n.commitIndex {
		n.lastApplied++
		if n.apply != nil {
			n.apply(n.lastApplied, n.log[n.lastApplied].Cmd)
		}
	}
}

// --- message handling ---

func (n *Node) handle(from simnet.NodeID, msg simnet.Message) {
	if !n.started {
		return
	}
	if m, ok := msg.(appendEntriesMsg); ok {
		n.handleAppendEntries(from, m)
	}
}

// handleEnv dispatches the fixed-size messages, which all travel as
// envelopes; a heartbeat is rebuilt as an entry-less AppendEntries on
// the stack (no allocation).
func (n *Node) handleEnv(from simnet.NodeID, e *simnet.Envelope) {
	if !n.started {
		return
	}
	switch e.Kind {
	case envPreVote:
		n.handlePreVote(from, e.A, e.B, e.C)
	case envPreVoteResp:
		n.handlePreVoteResp(from, e.A, e.Flag)
	case envRequestVote:
		n.handleRequestVote(from, e.A, e.S, e.B, e.C)
	case envRequestVoteResp:
		n.handleVoteResp(from, e.A, e.Flag)
	case envAppendHeartbeat:
		n.handleAppendEntries(from, appendEntriesMsg{Term: e.A, Leader: e.S, PrevLogIndex: e.B, PrevLogTerm: e.C, LeaderCommit: e.D})
	case envAppendResp:
		n.handleAppendResp(from, e.A, e.Flag, e.B)
	}
}

// handlePreVote grants a pre-vote for the term a candidate would start
// without touching currentTerm or votedFor: the probe succeeds only if
// the candidate could win a real election AND this node has not heard
// from a leader recently.
func (n *Node) handlePreVote(from simnet.NodeID, term, lastIdx, lastTerm uint64) {
	leaderRecent := n.leaderID != "" &&
		n.ep.Now()-n.lastLeaderContact < n.cfg.ElectionTimeoutMin
	granted := term >= n.currentTerm && n.logUpToDate(lastIdx, lastTerm) && !leaderRecent
	n.ep.SendEnvelope(from, simnet.Envelope{Kind: envPreVoteResp, A: n.currentTerm, Flag: granted, Bytes: 16})
}

func (n *Node) handlePreVoteResp(from simnet.NodeID, term uint64, granted bool) {
	if term > n.currentTerm {
		n.becomeFollower(term, "")
		return
	}
	if n.preVotes == nil || !granted {
		return
	}
	n.preVotes[from] = true
	n.maybeStartRealElection()
}

func (n *Node) handleRequestVote(from simnet.NodeID, term uint64, candidate simnet.NodeID, lastIdx, lastTerm uint64) {
	if term > n.currentTerm {
		n.becomeFollower(term, "")
	}
	granted := false
	if term == n.currentTerm && (n.votedFor == "" || n.votedFor == candidate) && n.logUpToDate(lastIdx, lastTerm) {
		granted = true
		n.votedFor = candidate
		n.resetElectionTimer()
	}
	n.ep.SendEnvelope(from, simnet.Envelope{Kind: envRequestVoteResp, A: n.currentTerm, Flag: granted, Bytes: 16})
}

// logUpToDate implements Raft's §5.4.1 voting restriction.
func (n *Node) logUpToDate(lastIdx, lastTerm uint64) bool {
	if lastTerm != n.lastLogTerm() {
		return lastTerm > n.lastLogTerm()
	}
	return lastIdx >= n.lastLogIndex()
}

func (n *Node) handleVoteResp(from simnet.NodeID, term uint64, granted bool) {
	if term > n.currentTerm {
		n.becomeFollower(term, "")
		return
	}
	if n.role != Candidate || term < n.currentTerm || !granted {
		return
	}
	n.votes[from] = true
	n.maybeWin()
}

// sendAppendResp replies to an AppendEntries.
func (n *Node) sendAppendResp(to simnet.NodeID, success bool, match uint64) {
	n.ep.SendEnvelope(to, simnet.Envelope{Kind: envAppendResp, A: n.currentTerm, Flag: success, B: match, Bytes: 24})
}

func (n *Node) handleAppendEntries(from simnet.NodeID, m appendEntriesMsg) {
	if m.Term < n.currentTerm {
		n.sendAppendResp(from, false, 0)
		return
	}
	// Valid leader for this term.
	n.becomeFollower(m.Term, m.Leader)
	n.lastLeaderContact = n.ep.Now()
	if m.PrevLogIndex > n.lastLogIndex() || n.log[m.PrevLogIndex].Term != m.PrevLogTerm {
		n.sendAppendResp(from, false, 0)
		return
	}
	// Append, truncating conflicts.
	idx := m.PrevLogIndex
	for _, e := range m.Entries {
		idx++
		if idx <= n.lastLogIndex() {
			if n.log[idx].Term != e.Term {
				n.log = n.log[:idx]
				n.log = append(n.log, e)
			}
			continue
		}
		n.log = append(n.log, e)
	}
	match := m.PrevLogIndex + uint64(len(m.Entries))
	if m.LeaderCommit > n.commitIndex {
		n.commitIndex = min64(m.LeaderCommit, n.lastLogIndex())
		n.applyCommitted()
	}
	n.sendAppendResp(from, true, match)
}

func (n *Node) handleAppendResp(from simnet.NodeID, term uint64, success bool, match uint64) {
	if term > n.currentTerm {
		n.becomeFollower(term, "")
		return
	}
	if n.role != Leader || term < n.currentTerm {
		return
	}
	fi := n.peerIdx(from)
	if fi < 0 {
		return
	}
	if success && match > n.lastLogIndex() {
		// No follower can hold an entry the leader never had: the
		// reply is forged or corrupt, and taking it would send
		// AppendEntries from past the end of the log.
		return
	}
	if n.peerContact != nil {
		// Any same-term response — success or log mismatch — proves the
		// peer is reachable.
		n.peerContact[fi] = n.ep.Now()
	}
	if success {
		moved := match > n.matchIndex[fi]
		if moved {
			n.matchIndex[fi] = match
		}
		n.nextIndex[fi] = n.matchIndex[fi] + 1
		// Only a moved match can move the commit point: Propose runs
		// advanceCommit after moving the leader's own match, and maybeWin
		// leaves no entry of the current term to commit.
		if moved {
			n.advanceCommit()
		}
		if n.nextIndex[fi] <= n.lastLogIndex() {
			n.sendAppend(fi)
		}
		return
	}
	// Log mismatch: back off and retry.
	if n.nextIndex[fi] > 1 {
		n.nextIndex[fi]--
	}
	n.sendAppend(fi)
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
