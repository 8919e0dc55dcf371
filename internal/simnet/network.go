package simnet

import "fmt"

// Handler consumes packets delivered to a host for a particular flow.
type Handler func(pkt *Packet, at Time)

// Host is an endpoint or router. Endpoints register flow handlers; packets
// addressed to a host without a matching handler are counted and discarded.
type Host struct {
	handlers map[FlowID]Handler
	captures []CaptureFunc
	// Unrouted counts packets that arrived with no registered handler.
	Unrouted uint64
}

// Register installs the handler for a flow, replacing any previous one.
func (h *Host) Register(flow FlowID, fn Handler) { h.handlers[flow] = fn }

// AddCapture installs a NIC capture hook (Wren's packet trace facility).
// Out events fire when this host's NIC starts serializing a packet; In
// events fire when a packet addressed to this host arrives.
func (h *Host) AddCapture(fn CaptureFunc) { h.captures = append(h.captures, fn) }

func (h *Host) captureOut(pkt *Packet, at Time) {
	for _, fn := range h.captures {
		fn(pkt, at, Out)
	}
}

func (h *Host) captureIn(pkt *Packet, at Time) {
	for _, fn := range h.captures {
		fn(pkt, at, In)
	}
}

// Network ties hosts and links to a Sim and routes packets between them
// over minimum-hop paths.
type Network struct {
	sim    *Sim
	hosts  []*Host
	links  map[[2]HostID]*Link
	next   [][]HostID // next[src][dst] = next hop, -1 if unreachable
	dirty  bool       // routes need recomputation
	pktSeq uint64

	// Sent and Delivered count end-to-end packets (drops are per-link).
	Sent      uint64
	Delivered uint64
}

// DefaultQueueBytes is the droptail queue bound used when callers pass 0:
// about 42 full-size Ethernet frames, a typical shallow router queue.
const DefaultQueueBytes = 64 * 1000

// NewNetwork creates a network with n hosts attached to sim.
func NewNetwork(sim *Sim, n int) *Network {
	net := &Network{
		sim:   sim,
		links: make(map[[2]HostID]*Link),
		dirty: true,
	}
	for i := 0; i < n; i++ {
		net.hosts = append(net.hosts, &Host{handlers: make(map[FlowID]Handler)})
	}
	return net
}

// Schedule delegates to the underlying engine.
func (n *Network) Schedule(at Time, fn func()) { n.sim.Schedule(at, fn) }

// After delegates to the underlying engine.
func (n *Network) After(d Duration, fn func()) { n.sim.After(d, fn) }

// Now delegates to the underlying engine.
func (n *Network) Now() Time { return n.sim.Now() }

// Host returns the host with the given ID.
func (n *Network) Host(id HostID) *Host {
	if id < 0 || int(id) >= len(n.hosts) {
		panic(fmt.Sprintf("simnet: host %d out of range", id))
	}
	return n.hosts[id]
}

// AddLink creates a unidirectional link. queueBytes <= 0 selects
// DefaultQueueBytes.
func (n *Network) AddLink(from, to HostID, rateMbps float64, delay Duration, queueBytes int) *Link {
	n.Host(from)
	n.Host(to)
	if from == to {
		panic("simnet: link to self")
	}
	if rateMbps <= 0 {
		panic("simnet: non-positive link rate")
	}
	if queueBytes <= 0 {
		queueBytes = DefaultQueueBytes
	}
	l := &Link{net: n, from: from, to: to, rateMbps: rateMbps, delay: delay, queueCap: queueBytes}
	n.links[[2]HostID{from, to}] = l
	n.dirty = true
	return l
}

// AddDuplexLink creates links in both directions with identical parameters
// and returns them (forward, reverse).
func (n *Network) AddDuplexLink(a, b HostID, rateMbps float64, delay Duration, queueBytes int) (*Link, *Link) {
	return n.AddLink(a, b, rateMbps, delay, queueBytes),
		n.AddLink(b, a, rateMbps, delay, queueBytes)
}

// Link returns the link from->to, or nil.
func (n *Network) Link(from, to HostID) *Link {
	return n.links[[2]HostID{from, to}]
}

// computeRoutes rebuilds the min-hop next-hop matrix with one BFS per host.
func (n *Network) computeRoutes() {
	h := len(n.hosts)
	adj := make([][]HostID, h)
	for key := range n.links {
		adj[key[0]] = append(adj[key[0]], key[1])
	}
	n.next = make([][]HostID, h)
	for src := 0; src < h; src++ {
		prev := make([]HostID, h)
		for i := range prev {
			prev[i] = -1
		}
		prev[src] = HostID(src)
		queue := []HostID{HostID(src)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if prev[w] == -1 {
					prev[w] = v
					queue = append(queue, w)
				}
			}
		}
		n.next[src] = make([]HostID, h)
		for dst := 0; dst < h; dst++ {
			if dst == src || prev[dst] == -1 {
				n.next[src][dst] = -1
				continue
			}
			// Walk back from dst to find the first hop out of src.
			hop := HostID(dst)
			for prev[hop] != HostID(src) {
				hop = prev[hop]
			}
			n.next[src][dst] = hop
		}
	}
	n.dirty = false
}

// NextHop returns the next hop from src toward dst, or -1 if unreachable.
func (n *Network) NextHop(src, dst HostID) HostID {
	if n.dirty {
		n.computeRoutes()
	}
	return n.next[src][dst]
}

// Send injects a packet at its source host. The packet is stamped with a
// unique ID and the current time, then forwarded hop by hop. Sending to an
// unreachable destination panics: it is a topology bug, not a runtime
// condition.
func (n *Network) Send(pkt *Packet) {
	if pkt.Src == pkt.Dst {
		panic("simnet: send to self")
	}
	n.pktSeq++
	pkt.ID = n.pktSeq
	pkt.SentAt = n.sim.Now()
	n.Sent++
	n.forward(pkt.Src, pkt)
}

func (n *Network) forward(at HostID, pkt *Packet) {
	hop := n.NextHop(at, pkt.Dst)
	if hop == -1 {
		panic(fmt.Sprintf("simnet: no route from %d to %d", at, pkt.Dst))
	}
	link := n.Link(at, hop)
	link.enqueue(pkt)
}

// arrive handles a packet reaching host `at` off a link: final delivery if
// addressed here, otherwise store-and-forward toward the destination.
func (n *Network) arrive(at HostID, pkt *Packet) {
	if pkt.Dst != at {
		n.forward(at, pkt)
		return
	}
	host := n.hosts[at]
	host.captureIn(pkt, n.sim.Now())
	if fn, ok := host.handlers[pkt.Flow]; ok {
		n.Delivered++
		fn(pkt, n.sim.Now())
		return
	}
	host.Unrouted++
}
