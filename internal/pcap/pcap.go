package pcap

// Dir is the capture direction relative to the traced host.
type Dir uint8

const (
	Out Dir = iota // packet left this host's NIC
	In             // packet arrived at this host
)

func (d Dir) String() string {
	if d == Out {
		return "out"
	}
	return "in"
}

// FlowKey identifies a unidirectional conversation between two endpoints.
// Endpoints are strings so the same analyzer serves simulated hosts
// ("host3"), VNET daemons ("vnet://10.0.0.2:9000"), or anything else.
type FlowKey struct {
	Local  string // the traced host's endpoint
	Remote string // the peer
}

// Record is one captured packet header. It is the only information Wren
// ever needs: who, when, how big, and the TCP sequence/ack numbers.
type Record struct {
	At    int64 // timestamp in nanoseconds (simulated or wall clock)
	Dir   Dir
	Flow  FlowKey
	Size  int   // bytes on the wire
	Seq   int64 // first payload byte (data packets)
	Len   int   // payload bytes (data packets)
	IsAck bool
	Ack   int64 // cumulative acknowledgment (ACK packets)
}
