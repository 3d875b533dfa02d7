package consensus

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/simnet"
)

// group builds an n-node Raft group and starts every node.
func group(t *testing.T, sim *simnet.Sim, n int) []*Node {
	t.Helper()
	ids := make([]simnet.NodeID, n)
	for i := range ids {
		ids[i] = simnet.NodeID(fmt.Sprintf("r%d", i))
	}
	nodes := make([]*Node, n)
	for i := range ids {
		nodes[i] = New(sim.AddNode(ids[i]), ids, Config{}, nil)
	}
	for _, nd := range nodes {
		nd.Start()
	}
	return nodes
}

func leaders(nodes []*Node, sim *simnet.Sim) []*Node {
	var out []*Node
	for _, nd := range nodes {
		if nd.Role() == Leader && sim.NodeUp(nd.ep.ID()) {
			out = append(out, nd)
		}
	}
	return out
}

func waitForLeader(t *testing.T, sim *simnet.Sim, nodes []*Node, deadline time.Duration) *Node {
	t.Helper()
	for sim.Now() < deadline {
		sim.RunUntil(sim.Now() + 50*time.Millisecond)
		if ls := leaders(nodes, sim); len(ls) == 1 {
			return ls[0]
		}
	}
	t.Fatalf("no single leader by %v", deadline)
	return nil
}

func TestRoleString(t *testing.T) {
	if Follower.String() != "follower" || Candidate.String() != "candidate" || Leader.String() != "leader" {
		t.Fatal("role names wrong")
	}
	if Role(7).String() != "role(7)" {
		t.Fatal("unknown role name wrong")
	}
}

// TestPeerIdxResolvesEveryPeer: the binary search finds each member at
// its slot of the sorted peers (r10 sorts before r2) and nobody else.
func TestPeerIdxResolvesEveryPeer(t *testing.T) {
	nd := group(t, simnet.New(simnet.WithSeed(1)), 12)[3]
	for i, p := range nd.peers {
		if got := nd.peerIdx(p); got != i {
			t.Fatalf("peerIdx(%s) = %d, want %d", p, got, i)
		}
	}
	for _, stranger := range []simnet.NodeID{"", "r", "r12", "r1x", "s0"} {
		if got := nd.peerIdx(stranger); got != -1 {
			t.Fatalf("peerIdx(%q) = %d, want -1", stranger, got)
		}
	}
}

func TestSingleNodeBecomesLeaderAndCommits(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(1))
	var applied []Command
	id := simnet.NodeID("solo")
	nd := New(sim.AddNode(id), []simnet.NodeID{id}, Config{}, func(_ uint64, c Command) {
		applied = append(applied, c)
	})
	nd.Start()
	sim.RunUntil(time.Second)
	if nd.Role() != Leader {
		t.Fatalf("role = %v, want leader", nd.Role())
	}
	if _, ok := nd.Propose("cmd1"); !ok {
		t.Fatal("Propose refused")
	}
	sim.RunUntil(2 * time.Second)
	if len(applied) != 1 || applied[0] != "cmd1" {
		t.Fatalf("applied = %v, want [cmd1]", applied)
	}
}

func TestThreeNodesElectExactlyOneLeader(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(2), simnet.WithDefaultLatency(2*time.Millisecond))
	nodes := group(t, sim, 3)
	waitForLeader(t, sim, nodes, 3*time.Second)
	// All nodes agree on the leader.
	lead := nodes[0].Leader()
	for i, nd := range nodes {
		if nd.Leader() != lead {
			t.Fatalf("node %d sees leader %q, others see %q", i, nd.Leader(), lead)
		}
	}
}

func TestReplicationReachesAllNodes(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(3), simnet.WithDefaultLatency(2*time.Millisecond))
	ids := []simnet.NodeID{"r0", "r1", "r2"}
	appliedBy := map[simnet.NodeID][]Command{}
	nodes := make([]*Node, 3)
	for i, id := range ids {
		id := id
		nodes[i] = New(sim.AddNode(id), ids, Config{}, func(_ uint64, c Command) {
			appliedBy[id] = append(appliedBy[id], c)
		})
		nodes[i].Start()
	}
	lead := waitForLeader(t, sim, nodes, 3*time.Second)
	for i := 0; i < 5; i++ {
		if _, ok := lead.Propose(fmt.Sprintf("c%d", i)); !ok {
			t.Fatalf("Propose %d refused", i)
		}
		sim.RunUntil(sim.Now() + 100*time.Millisecond)
	}
	sim.RunUntil(sim.Now() + time.Second)
	for _, id := range ids {
		got := appliedBy[id]
		if len(got) != 5 {
			t.Fatalf("node %s applied %d commands, want 5: %v", id, len(got), got)
		}
		for i := range got {
			if got[i] != fmt.Sprintf("c%d", i) {
				t.Fatalf("node %s applied %v", id, got)
			}
		}
	}
}

func TestProposeOnFollowerRefused(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(4), simnet.WithDefaultLatency(2*time.Millisecond))
	nodes := group(t, sim, 3)
	lead := waitForLeader(t, sim, nodes, 3*time.Second)
	for _, nd := range nodes {
		if nd == lead {
			continue
		}
		if _, ok := nd.Propose("x"); ok {
			t.Fatal("follower accepted a proposal")
		}
	}
}

func TestLeaderCrashTriggersReelection(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(5), simnet.WithDefaultLatency(2*time.Millisecond))
	nodes := group(t, sim, 5)
	lead := waitForLeader(t, sim, nodes, 3*time.Second)
	oldTerm := lead.Term()
	sim.SetDown(lead.ep.ID(), true)
	newLead := waitForLeader(t, sim, nodes, sim.Now()+5*time.Second)
	if newLead == lead {
		t.Fatal("crashed node still counted as leader")
	}
	if newLead.Term() <= oldTerm {
		t.Fatalf("new term %d not greater than old %d", newLead.Term(), oldTerm)
	}
}

func TestMinorityPartitionCannotCommit(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(6), simnet.WithDefaultLatency(2*time.Millisecond))
	nodes := group(t, sim, 5)
	lead := waitForLeader(t, sim, nodes, 3*time.Second)

	// Isolate the leader with one follower (minority side).
	var minority, majority []simnet.NodeID
	minority = append(minority, lead.ep.ID())
	for _, nd := range nodes {
		if nd != lead && len(minority) < 2 {
			minority = append(minority, nd.ep.ID())
		} else if nd != lead {
			majority = append(majority, nd.ep.ID())
		}
	}
	sim.Partition(minority, majority)

	before := lead.CommitIndex()
	lead.Propose("doomed")
	sim.RunUntil(sim.Now() + 2*time.Second)
	if lead.CommitIndex() != before {
		t.Fatal("minority leader committed an entry")
	}

	// Majority side elects a fresh leader that can commit.
	var majNodes []*Node
	for _, nd := range nodes {
		for _, id := range majority {
			if nd.ep.ID() == id {
				majNodes = append(majNodes, nd)
			}
		}
	}
	newLead := waitForLeader(t, sim, majNodes, sim.Now()+5*time.Second)
	if _, ok := newLead.Propose("ok"); !ok {
		t.Fatal("majority leader refused proposal")
	}
	sim.RunUntil(sim.Now() + time.Second)
	if newLead.CommitIndex() == 0 {
		t.Fatal("majority leader failed to commit")
	}

	// Heal: the doomed entry must be superseded everywhere.
	sim.HealPartition()
	sim.RunUntil(sim.Now() + 3*time.Second)
	for i, nd := range nodes {
		cmds := nd.CommittedCommands()
		for _, c := range cmds {
			if c == "doomed" {
				t.Fatalf("node %d committed the doomed entry: %v", i, cmds)
			}
		}
	}
}

func TestCrashedLeaderRejoinsAsFollowerAndCatchesUp(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(7), simnet.WithDefaultLatency(2*time.Millisecond))
	nodes := group(t, sim, 3)
	lead := waitForLeader(t, sim, nodes, 3*time.Second)
	lead.Propose("a")
	sim.RunUntil(sim.Now() + 500*time.Millisecond)

	sim.SetDown(lead.ep.ID(), true)
	newLead := waitForLeader(t, sim, nodes, sim.Now()+5*time.Second)
	newLead.Propose("b")
	sim.RunUntil(sim.Now() + 500*time.Millisecond)

	sim.SetDown(lead.ep.ID(), false)
	sim.RunUntil(sim.Now() + 3*time.Second)

	cmds := lead.CommittedCommands()
	if len(cmds) != 2 || cmds[0] != "a" || cmds[1] != "b" {
		t.Fatalf("rejoined node committed %v, want [a b]", cmds)
	}
	if lead.Role() == Leader && newLead.Role() == Leader {
		t.Fatal("two leaders after rejoin")
	}
}

func TestCommittedPrefixConsistencyUnderChaos(t *testing.T) {
	// Safety property: across random crashes and recoveries, all nodes'
	// committed sequences are prefixes of one another.
	sim := simnet.New(simnet.WithSeed(8), simnet.WithDefaultLatency(2*time.Millisecond))
	nodes := group(t, sim, 5)

	proposals := 0
	tick := func() {
		if ls := leaders(nodes, sim); len(ls) == 1 {
			proposals++
			ls[0].Propose(fmt.Sprintf("p%d", proposals))
		}
	}
	// Random crash/recover chaos via the simulator directly.
	rng := sim.Rand()
	for step := 0; step < 200; step++ {
		sim.RunUntil(sim.Now() + 100*time.Millisecond)
		tick()
		if step%10 == 5 {
			victim := nodes[rng.Intn(len(nodes))]
			sim.SetDown(victim.ep.ID(), true)
		}
		if step%10 == 9 {
			for _, nd := range nodes {
				sim.SetDown(nd.ep.ID(), false)
			}
		}
	}
	for _, nd := range nodes {
		sim.SetDown(nd.ep.ID(), false)
	}
	sim.RunUntil(sim.Now() + 5*time.Second)

	if proposals == 0 {
		t.Fatal("no proposals made")
	}
	// Find the longest committed sequence, check all are prefixes.
	var longest []Command
	for _, nd := range nodes {
		if c := nd.CommittedCommands(); len(c) > len(longest) {
			longest = c
		}
	}
	if len(longest) == 0 {
		t.Fatal("nothing committed under chaos")
	}
	for i, nd := range nodes {
		c := nd.CommittedCommands()
		for j := range c {
			if c[j] != longest[j] {
				t.Fatalf("node %d diverges at %d: %v vs %v", i, j, c[j], longest[j])
			}
		}
	}
}

func TestConsistencyUnderLossAndDuplication(t *testing.T) {
	// Raft must stay safe when the network both loses and duplicates
	// datagrams: duplicate votes must not double-count, duplicate
	// AppendEntries must be idempotent.
	sim := simnet.New(simnet.WithSeed(21), simnet.WithDefaultLatency(2*time.Millisecond),
		simnet.WithDefaultLoss(0.1), simnet.WithDuplicateProb(0.2))
	nodes := group(t, sim, 5)
	lead := waitForLeader(t, sim, nodes, 10*time.Second)
	for i := 0; i < 20; i++ {
		if ls := leaders(nodes, sim); len(ls) == 1 {
			ls[0].Propose(fmt.Sprintf("c%d", i))
		}
		sim.RunUntil(sim.Now() + 200*time.Millisecond)
	}
	sim.RunUntil(sim.Now() + 3*time.Second)

	var longest []Command
	for _, nd := range nodes {
		if c := nd.CommittedCommands(); len(c) > len(longest) {
			longest = c
		}
	}
	if len(longest) == 0 {
		t.Fatal("nothing committed under loss+duplication")
	}
	seen := map[Command]bool{}
	for _, c := range longest {
		if seen[c] {
			t.Fatalf("command %v committed twice", c)
		}
		seen[c] = true
	}
	for i, nd := range nodes {
		c := nd.CommittedCommands()
		for j := range c {
			if c[j] != longest[j] {
				t.Fatalf("node %d diverges at %d", i, j)
			}
		}
	}
	_ = lead
}

func TestDeterministicElections(t *testing.T) {
	run := func() (simnet.NodeID, uint64) {
		sim := simnet.New(simnet.WithSeed(42), simnet.WithDefaultLatency(2*time.Millisecond))
		nodes := group(t, sim, 5)
		lead := waitForLeader(t, sim, nodes, 3*time.Second)
		return lead.ep.ID(), lead.Term()
	}
	id1, t1 := run()
	id2, t2 := run()
	if id1 != id2 || t1 != t2 {
		t.Fatalf("elections not deterministic: %s/%d vs %s/%d", id1, t1, id2, t2)
	}
}

// preVoteCounter wraps a node's port and counts the PreVote requests
// it sends.
type preVoteCounter struct {
	simnet.Port
	sent int
}

func (c *preVoteCounter) SendEnvelope(to simnet.NodeID, env simnet.Envelope) bool {
	if env.Kind == envPreVote {
		c.sent++
	}
	return c.Port.SendEnvelope(to, env)
}

func TestPreVotePreventsDisruptionByIsolatedNode(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(11), simnet.WithDefaultLatency(2*time.Millisecond))
	nodes := group(t, sim, 5)
	lead := waitForLeader(t, sim, nodes, 3*time.Second)
	termBefore := lead.Term()

	// Isolate one follower for a long stretch: it times out over and
	// over, but PreVote keeps its term from inflating.
	var isolated *Node
	for _, nd := range nodes {
		if nd != lead {
			isolated = nd
			break
		}
	}
	pv := &preVoteCounter{Port: isolated.ep}
	isolated.ep = pv
	sim.Partition([]simnet.NodeID{isolated.ep.ID()})
	sim.RunUntil(sim.Now() + 20*time.Second)
	if pv.sent == 0 {
		t.Fatal("isolated node sent no PreVote requests while cut off: the scenario never tried to disrupt")
	}
	if isolated.Term() > termBefore {
		t.Fatalf("isolated node inflated its term to %d despite PreVote", isolated.Term())
	}

	// Healing must not depose the healthy leader.
	sim.HealPartition()
	sim.RunUntil(sim.Now() + 5*time.Second)
	if lead.Role() != Leader {
		t.Fatal("healthy leader deposed by rejoining node")
	}
	if lead.Term() != termBefore {
		t.Fatalf("term changed %d → %d on heal", termBefore, lead.Term())
	}
}

// TestForgedMatchIgnored has a follower send its leader one success
// reply that claims a match far past the leader's log. Taken as it is,
// it would make the next AppendEntries read past the end of the log;
// the leader must ignore it and keep committing.
func TestForgedMatchIgnored(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(3), simnet.WithDefaultLatency(2*time.Millisecond))
	nodes := group(t, sim, 3)
	lead := waitForLeader(t, sim, nodes, 3*time.Second)
	follower := nodes[0]
	if follower == lead {
		follower = nodes[1]
	}
	follower.ep.SendEnvelope(lead.ep.ID(), simnet.Envelope{Kind: envAppendResp, A: lead.Term(), Flag: true, B: 1 << 40, Bytes: 24})
	sim.RunUntil(sim.Now() + time.Second)
	idx, ok := lead.Propose("after")
	if !ok {
		t.Fatal("leader lost leadership to a forged reply")
	}
	sim.RunUntil(sim.Now() + time.Second)
	for _, nd := range nodes {
		if nd.commitIndex < idx {
			t.Fatalf("%s committed up to %d, want %d", nd.ep.ID(), nd.commitIndex, idx)
		}
	}
}

func TestPreVoteStillElectsWhenLeaderDies(t *testing.T) {
	// PreVote must not block legitimate elections.
	sim := simnet.New(simnet.WithSeed(12), simnet.WithDefaultLatency(2*time.Millisecond))
	nodes := group(t, sim, 3)
	lead := waitForLeader(t, sim, nodes, 3*time.Second)
	sim.SetDown(lead.ep.ID(), true)
	newLead := waitForLeader(t, sim, nodes, sim.Now()+5*time.Second)
	if newLead == lead {
		t.Fatal("no new leader elected with PreVote enabled")
	}
}

func TestMessageSizes(t *testing.T) {
	with := appendEntriesMsg{Entries: []entry{{}, {}}}.Size()
	without := appendEntriesMsg{}.Size()
	if with <= without {
		t.Fatal("entries must add to message size")
	}
}

// groupWith builds an n-node Raft group with a shared config.
func groupWith(t *testing.T, sim *simnet.Sim, n int, cfg Config) []*Node {
	t.Helper()
	ids := make([]simnet.NodeID, n)
	for i := range ids {
		ids[i] = simnet.NodeID(fmt.Sprintf("r%d", i))
	}
	nodes := make([]*Node, n)
	for i := range ids {
		nodes[i] = New(sim.AddNode(ids[i]), ids, cfg, nil)
	}
	for _, nd := range nodes {
		nd.Start()
	}
	return nodes
}

// TestCheckQuorumLeaderStepsDownWhenIsolated strands a leader on the
// minority side of a partition: with CheckQuorum it must surrender
// leadership within ElectionTimeoutMax of losing quorum contact —
// the signal the island guard keys off — instead of reigning over a
// one-node fiefdom forever.
func TestCheckQuorumLeaderStepsDownWhenIsolated(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(9), simnet.WithDefaultLatency(2*time.Millisecond))
	nodes := groupWith(t, sim, 3, Config{CheckQuorum: true})
	lead := waitForLeader(t, sim, nodes, 3*time.Second)

	var rest []simnet.NodeID
	for _, nd := range nodes {
		if nd != lead {
			rest = append(rest, nd.ep.ID())
		}
	}
	sim.Partition([]simnet.NodeID{lead.ep.ID()}, rest)
	sim.RunUntil(sim.Now() + time.Second)
	if lead.Role() == Leader {
		t.Fatal("isolated leader kept leadership with CheckQuorum on")
	}
	if stale := sim.Now() - lead.QuorumContact(); stale < time.Second {
		t.Fatalf("QuorumContact only %v stale after a 1s isolation", stale)
	}

	// The majority side elects its own leader; after healing there is
	// exactly one, and its quorum contact stays fresh.
	sim.HealPartition()
	lead2 := waitForLeader(t, sim, nodes, sim.Now()+3*time.Second)
	sim.RunUntil(sim.Now() + time.Second)
	if ls := leaders(nodes, sim); len(ls) != 1 {
		t.Fatalf("%d leaders after heal", len(ls))
	}
	if stale := sim.Now() - lead2.QuorumContact(); stale > 300*time.Millisecond {
		t.Fatalf("healthy leader's QuorumContact is %v stale", stale)
	}
}

// TestWithoutCheckQuorumIsolatedLeaderPersists pins the contrast: with
// the knob off (the default every pinned journal runs under), the same
// isolation leaves the old leader in place — the legacy behavior the
// determinism contract depends on.
func TestWithoutCheckQuorumIsolatedLeaderPersists(t *testing.T) {
	sim := simnet.New(simnet.WithSeed(9), simnet.WithDefaultLatency(2*time.Millisecond))
	nodes := groupWith(t, sim, 3, Config{})
	lead := waitForLeader(t, sim, nodes, 3*time.Second)

	var rest []simnet.NodeID
	for _, nd := range nodes {
		if nd != lead {
			rest = append(rest, nd.ep.ID())
		}
	}
	sim.Partition([]simnet.NodeID{lead.ep.ID()}, rest)
	sim.RunUntil(sim.Now() + time.Second)
	if lead.Role() != Leader {
		t.Fatal("isolated leader stepped down without CheckQuorum")
	}
}
