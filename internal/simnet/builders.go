package simnet

// This file provides the canned physical topologies the experiments use.

// DumbbellConfig parameterizes NewDumbbell. The dumbbell is the standard
// controlled-load testbed shape: endpoint hosts on fast access links on
// both sides of a single bottleneck link between two routers, which is
// where cross traffic and the monitored application's traffic share
// capacity.
type DumbbellConfig struct {
	AccessMbps           float64  // per-endpoint access link rate
	AccessDelay          Duration // per-access-link propagation delay
	BottleneckMbps       float64  // shared bottleneck rate
	BottleneckDelay      Duration // bottleneck propagation delay (sets base RTT)
	AccessQueueBytes     int      // droptail bound on access links (0 = 1 MB NIC ring)
	BottleneckQueueBytes int      // droptail bound on the bottleneck (0 = default)
}

// Dumbbell is the built topology. Host IDs: Left endpoints first, then
// Right endpoints, then the two routers.
type Dumbbell struct {
	Net         *Network
	Left, Right []HostID
	RouterL     HostID
	RouterR     HostID
	Forward     *Link // RouterL -> RouterR (left-to-right bottleneck)
	Reverse     *Link // RouterR -> RouterL
}

// NewDumbbell builds a dumbbell with nLeft and nRight endpoint hosts.
func NewDumbbell(sim *Sim, nLeft, nRight int, cfg DumbbellConfig) *Dumbbell {
	accessQ := cfg.AccessQueueBytes
	if accessQ <= 0 {
		// Host NIC rings are deep relative to router queues: a TCP burst of
		// a full congestion window must not drop at the sender's own NIC.
		accessQ = 1 << 20
	}
	n := NewNetwork(sim, nLeft+nRight+2)
	d := &Dumbbell{Net: n}
	d.RouterL = HostID(nLeft + nRight)
	d.RouterR = HostID(nLeft + nRight + 1)
	for i := 0; i < nLeft; i++ {
		id := HostID(i)
		d.Left = append(d.Left, id)
		n.AddDuplexLink(id, d.RouterL, cfg.AccessMbps, cfg.AccessDelay, accessQ)
	}
	for i := 0; i < nRight; i++ {
		id := HostID(nLeft + i)
		d.Right = append(d.Right, id)
		n.AddDuplexLink(id, d.RouterR, cfg.AccessMbps, cfg.AccessDelay, accessQ)
	}
	d.Forward = n.AddLink(d.RouterL, d.RouterR, cfg.BottleneckMbps, cfg.BottleneckDelay, cfg.BottleneckQueueBytes)
	d.Reverse = n.AddLink(d.RouterR, d.RouterL, cfg.BottleneckMbps, cfg.BottleneckDelay, cfg.BottleneckQueueBytes)
	return d
}

// ParkingLotConfig parameterizes NewParkingLot. The parking lot is the
// standard multi-bottleneck shape: a chain of routers where the monitored
// path traverses every hop while each cross flow loads exactly one, so the
// end-to-end available bandwidth is the minimum over hops — the case a
// single-bottleneck estimator model has to survive.
type ParkingLotConfig struct {
	AccessMbps    float64   // endpoint access link rate
	AccessDelay   Duration  // per-access-link propagation delay
	HopMbps       []float64 // rate of each router-to-router hop, left to right
	HopDelay      Duration  // per-hop propagation delay
	HopQueueBytes int       // droptail bound on the hops (0 = default)
}

// ParkingLot is the built topology.
type ParkingLot struct {
	Net      *Network
	Src, Dst HostID   // endpoints of the monitored end-to-end path
	Sink     HostID   // extra endpoint beside Dst (probe or second-flow sink)
	Routers  []HostID // len(HopMbps)+1 routers, left to right
	Hops     []*Link  // forward hop links Routers[i] -> Routers[i+1]
	// CrossSrc[i] -> CrossDst[i] is a flow whose shortest path crosses
	// exactly hop i.
	CrossSrc, CrossDst []HostID
}

// NewParkingLot builds a parking lot with one cross-flow endpoint pair per
// hop. Host IDs: Src, Dst, Sink, then routers, then cross pairs.
func NewParkingLot(sim *Sim, cfg ParkingLotConfig) *ParkingLot {
	hops := len(cfg.HopMbps)
	if hops == 0 {
		panic("simnet: parking lot needs at least one hop")
	}
	accessQ := 1 << 20 // deep NIC rings, as in NewDumbbell
	n := NewNetwork(sim, 3+(hops+1)+2*hops)
	p := &ParkingLot{Net: n, Src: 0, Dst: 1, Sink: 2}
	for i := 0; i <= hops; i++ {
		p.Routers = append(p.Routers, HostID(3+i))
	}
	n.AddDuplexLink(p.Src, p.Routers[0], cfg.AccessMbps, cfg.AccessDelay, accessQ)
	n.AddDuplexLink(p.Dst, p.Routers[hops], cfg.AccessMbps, cfg.AccessDelay, accessQ)
	n.AddDuplexLink(p.Sink, p.Routers[hops], cfg.AccessMbps, cfg.AccessDelay, accessQ)
	for i, rate := range cfg.HopMbps {
		fwd, _ := n.AddDuplexLink(p.Routers[i], p.Routers[i+1], rate, cfg.HopDelay, cfg.HopQueueBytes)
		p.Hops = append(p.Hops, fwd)
		src := HostID(3 + hops + 1 + 2*i)
		dst := src + 1
		p.CrossSrc = append(p.CrossSrc, src)
		p.CrossDst = append(p.CrossDst, dst)
		n.AddDuplexLink(src, p.Routers[i], cfg.AccessMbps, cfg.AccessDelay, accessQ)
		n.AddDuplexLink(dst, p.Routers[i+1], cfg.AccessMbps, cfg.AccessDelay, accessQ)
	}
	return p
}

// NewPair builds the simplest topology: two hosts joined by a duplex link.
func NewPair(sim *Sim, rateMbps float64, delay Duration, queueBytes int) (*Network, HostID, HostID) {
	n := NewNetwork(sim, 2)
	n.AddDuplexLink(0, 1, rateMbps, delay, queueBytes)
	return n, 0, 1
}
