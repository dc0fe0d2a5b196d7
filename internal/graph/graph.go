// Package graph builds and manipulates event graphs: the graph model of
// an MPI communication pattern at the heart of ANACIN-X.
//
// An event graph has one node per traced MPI event. Edges are of two
// kinds: program edges link consecutive events on one rank (logical
// time within a process), and message edges link each send event to the
// receive event that consumed its message. Figure 1 of the paper shows
// exactly this structure; the graph-kernel distance between two runs'
// event graphs is the paper's proxy metric for non-determinism.
package graph

import (
	"fmt"

	"github.com/anacin-go/anacinx/internal/trace"
	"github.com/anacin-go/anacinx/internal/vtime"
)

// NodeID indexes a node within its Graph.
type NodeID int32

// None marks the absence of a node reference.
const None NodeID = -1

// EdgeKind distinguishes the two edge classes of an event graph.
type EdgeKind uint8

const (
	// EdgeProgram links consecutive events on the same rank.
	EdgeProgram EdgeKind = iota
	// EdgeMessage links a send event to its matched receive event.
	EdgeMessage
)

// String names the edge kind.
func (k EdgeKind) String() string {
	if k == EdgeProgram {
		return "program"
	}
	return "message"
}

// Node is one event-graph vertex.
type Node struct {
	ID   NodeID
	Rank int
	// Seq is the event's position in its rank's stream of the source
	// trace (or of the parent graph, for sliced subgraphs).
	Seq  int
	Kind trace.EventKind
	// Label is the kernel label, the MPI operation name.
	Label string
	// Lamport is the event's logical timestamp.
	Lamport int64
	// Time is the event's virtual timestamp.
	Time vtime.Time
	// CallstackKey is the ";"-joined application call-path that issued
	// the event (see trace.Event.CallstackKey).
	CallstackKey string
}

// Edge is one directed event-graph edge.
type Edge struct {
	From, To NodeID
	Kind     EdgeKind
}

// Graph is a directed event graph with adjacency in both directions.
// Construct with FromTrace or FromReader; a manually assembled Graph
// must be finished with Seal before use.
type Graph struct {
	Nodes []Node
	Edges []Edge
	// Out and In are adjacency lists indexed by NodeID, populated by
	// Seal, listing edge indices.
	Out [][]int32
	In  [][]int32
	// Meta describes the run this graph models (zero for synthetic
	// graphs).
	Meta trace.Meta
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// MessageEdges returns how many edges are message edges.
func (g *Graph) MessageEdges() int {
	n := 0
	for i := range g.Edges {
		if g.Edges[i].Kind == EdgeMessage {
			n++
		}
	}
	return n
}

// Ranks returns the number of distinct ranks among the nodes.
func (g *Graph) Ranks() int {
	max := -1
	for i := range g.Nodes {
		if g.Nodes[i].Rank > max {
			max = g.Nodes[i].Rank
		}
	}
	return max + 1
}

// Seal populates the adjacency lists from Edges. It must be called after
// all nodes and edges are added and before neighbor queries.
//
// The per-node lists are carved out of two shared backing arrays after a
// degree-counting pass: two allocations regardless of node count,
// instead of the append-doubling churn of growing every list
// independently. Each list is sliced with its capacity clamped to its
// degree, so code that appends to an adjacency list after Seal
// reallocates instead of clobbering its neighbor.
func (g *Graph) Seal() {
	n := len(g.Nodes)
	g.Out = make([][]int32, n)
	g.In = make([][]int32, n)
	outDeg := make([]int32, n)
	inDeg := make([]int32, n)
	for i := range g.Edges {
		outDeg[g.Edges[i].From]++
		inDeg[g.Edges[i].To]++
	}
	outBack := make([]int32, len(g.Edges))
	inBack := make([]int32, len(g.Edges))
	var op, ip int32
	for i := 0; i < n; i++ {
		g.Out[i] = outBack[op : op : op+outDeg[i]]
		op += outDeg[i]
		g.In[i] = inBack[ip : ip : ip+inDeg[i]]
		ip += inDeg[i]
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		g.Out[e.From] = append(g.Out[e.From], int32(i))
		g.In[e.To] = append(g.In[e.To], int32(i))
	}
}

// OutNeighbors appends the successor node ids of n to dst and returns it.
func (g *Graph) OutNeighbors(n NodeID, dst []NodeID) []NodeID {
	for _, ei := range g.Out[n] {
		dst = append(dst, g.Edges[ei].To)
	}
	return dst
}

// InNeighbors appends the predecessor node ids of n to dst and returns it.
func (g *Graph) InNeighbors(n NodeID, dst []NodeID) []NodeID {
	for _, ei := range g.In[n] {
		dst = append(dst, g.Edges[ei].From)
	}
	return dst
}

// Validate checks structural invariants:
//   - edge endpoints are in range and adjacency is sealed;
//   - node IDs are dense and self-describing;
//   - message edges connect a send-capable node to a receive-capable one;
//   - program edges connect consecutive events of one rank;
//   - the graph is acyclic in Lamport order (every edge increases the
//     Lamport timestamp), which any causally consistent execution must
//     satisfy.
func (g *Graph) Validate() error {
	if g.Out == nil || g.In == nil {
		return fmt.Errorf("graph: not sealed")
	}
	for i := range g.Nodes {
		if g.Nodes[i].ID != NodeID(i) {
			return fmt.Errorf("graph: node %d has ID %d", i, g.Nodes[i].ID)
		}
	}
	n := NodeID(len(g.Nodes))
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("graph: edge %d endpoints (%d,%d) out of range", i, e.From, e.To)
		}
		from, to := &g.Nodes[e.From], &g.Nodes[e.To]
		switch e.Kind {
		case EdgeProgram:
			if from.Rank != to.Rank {
				return fmt.Errorf("graph: program edge %d crosses ranks %d→%d", i, from.Rank, to.Rank)
			}
			if to.Seq <= from.Seq {
				return fmt.Errorf("graph: program edge %d goes backwards (%d→%d)", i, from.Seq, to.Seq)
			}
		case EdgeMessage:
			if !from.Kind.IsSend() {
				return fmt.Errorf("graph: message edge %d leaves non-send node %v", i, from.Kind)
			}
			if !to.Kind.IsReceive() {
				return fmt.Errorf("graph: message edge %d enters non-receive node %v", i, to.Kind)
			}
		default:
			return fmt.Errorf("graph: edge %d has unknown kind %d", i, e.Kind)
		}
		if to.Lamport <= from.Lamport {
			return fmt.Errorf("graph: edge %d violates causality: lamport %d→%d", i, from.Lamport, to.Lamport)
		}
	}
	return nil
}

// FromTrace builds the event graph of a trace, validating it on the
// way. Nodes appear in rank-major, sequence order; program edges follow
// each rank's stream; message edges join each send to the receive that
// matched its message.
func FromTrace(tr *trace.Trace) (*Graph, error) { return build(tr, tr.Meta, 0) }

// FromReader builds the event graph of a v2 binary trace through its
// footer index, without materializing a *trace.Trace. The graph is
// identical to FromTrace of the same trace.
func FromReader(r *trace.Reader) (*Graph, error) { return build(r, r.Meta(), 0) }

// NodesOfRank returns the node ids of one rank, in sequence order.
func (g *Graph) NodesOfRank(rank int) []NodeID {
	var out []NodeID
	for i := range g.Nodes {
		if g.Nodes[i].Rank == rank {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// LabelCounts returns the multiset of node labels, the degree-0 kernel
// feature vector.
func (g *Graph) LabelCounts() map[string]int {
	counts := make(map[string]int, 8)
	for i := range g.Nodes {
		counts[g.Nodes[i].Label]++
	}
	return counts
}
