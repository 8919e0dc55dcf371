package vnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"freemeasure/internal/obs"
)

// This file implements "virtual UDP connection" links (paper section 3.1):
// each VNET message travels as one datagram on a shared per-daemon UDP
// socket, demultiplexed by remote address. Frame loss is acceptable — the
// overlay carries Ethernet, which never promised delivery — and the
// explicit per-frame sequence number keeps the cumulative ACK stream (and
// thus Wren's analysis) meaningful across losses.

// maxDatagram bounds one UDP message on the wire.
const maxDatagram = 65000

// Hello flags: a request expects an acknowledgment; an acknowledgment is
// terminal.
const (
	helloRequest byte = 0
	helloAck     byte = 1
)

// udpDemux is the immutable per-datagram demultiplexing snapshot: links
// and pending dials keyed by remote address. Like fwdTable it is swapped
// atomically under d.mu, so the read loop resolves every datagram without
// taking a lock.
type udpDemux struct {
	links map[string]*Link
	dials map[string]chan string
}

func (u *udpDemux) clone() *udpDemux {
	nu := &udpDemux{
		links: make(map[string]*Link, len(u.links)+1),
		dials: make(map[string]chan string, len(u.dials)+1),
	}
	for k, v := range u.links {
		nu.links[k] = v
	}
	for k, v := range u.dials {
		nu.dials[k] = v
	}
	return nu
}

// mutateUDP installs a new demux snapshot under d.mu.
func (d *Daemon) mutateUDP(fn func(*udpDemux)) {
	d.mu.Lock()
	u := d.udp.Load().clone()
	fn(u)
	d.udp.Store(u)
	d.mu.Unlock()
}

func helloPayload(flag byte, name string) []byte {
	out := make([]byte, 1+len(name))
	out[0] = flag
	copy(out[1:], name)
	return out
}

// udpTransport sends link messages as datagrams on the daemon's shared
// socket. The assembly buffer is reused across sends (one datagram is in
// flight per transport at a time; sendMu covers callers outside the
// link's writeMu, e.g. hello retries from the read loop).
type udpTransport struct {
	sock  *net.UDPConn
	raddr *net.UDPAddr
	drop  func()       // removes this link from the demux table
	tx    *obs.Counter // datagrams-sent series (nil when uninstrumented)

	sendMu  sync.Mutex
	sendBuf []byte
}

func (t *udpTransport) send(typ byte, payload []byte) error {
	if len(payload)+msgHeaderLen > maxDatagram {
		return fmt.Errorf("vnet: udp message %d bytes exceeds datagram limit", len(payload))
	}
	t.sendMu.Lock()
	msg, err := appendMessage(t.sendBuf[:0], typ, payload)
	if err == nil {
		t.sendBuf = msg
		_, err = t.sock.WriteToUDP(msg, t.raddr)
	}
	t.sendMu.Unlock()
	t.tx.Inc()
	return err
}

func (t *udpTransport) close() {
	if t.drop != nil {
		t.drop()
	}
}

func (t *udpTransport) kind() string { return "udp" }

// ListenUDP opens the daemon's virtual-UDP endpoint and returns its bound
// address. A daemon has at most one; ConnectUDP opens it on demand.
func (d *Daemon) ListenUDP(addr string) (string, error) {
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return "", err
	}
	sock, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		return "", err
	}
	d.mu.Lock()
	if d.closed || d.udpSock != nil {
		d.mu.Unlock()
		sock.Close()
		if d.udpSock != nil {
			return d.udpSock.LocalAddr().String(), nil
		}
		return "", errors.New("vnet: daemon closed")
	}
	d.udpSock = sock
	d.mu.Unlock()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.udpReadLoop(sock)
	}()
	return sock.LocalAddr().String(), nil
}

func (d *Daemon) udpReadLoop(sock *net.UDPConn) {
	// Messages are handled straight out of the socket buffer: nothing
	// downstream keeps a reference into it (local delivery copies).
	recv := make([]byte, maxDatagram+1)
	for {
		n, raddr, err := sock.ReadFromUDP(recv)
		if err != nil {
			return
		}
		d.met.UDPDatagramsRx.Inc()
		if n < msgHeaderLen {
			d.met.UDPMalformed.Inc()
			continue
		}
		typ := recv[0]
		payload := recv[msgHeaderLen:n]
		if ln := binary.BigEndian.Uint32(recv[1:msgHeaderLen]); int(ln) != len(payload) {
			d.met.UDPMalformed.Inc()
			continue // malformed datagram framing
		}
		key := raddr.String()

		u := d.udp.Load()
		link := u.links[key]
		pending := u.dials[key]

		if typ == msgHello {
			// Hello datagrams carry [flag][name]: flag 0 is a dial request
			// (always acknowledged with flag 1), flag 1 is the
			// acknowledgment (never answered, so retries cannot ping-pong).
			if len(payload) < 2 {
				continue
			}
			isAck := payload[0] == helloAck
			peer := string(payload[1:])
			if peer == "" || peer == d.name {
				continue
			}
			if link == nil {
				if l := d.acceptUDPLink(sock, raddr, peer, !isAck); l == nil {
					continue
				}
			} else if !isAck {
				// Retry of a dial we already accepted: re-acknowledge.
				link.tr.send(msgHello, helloPayload(helloAck, d.name))
			}
			if isAck && pending != nil {
				select {
				case pending <- peer:
				default:
				}
			}
			continue
		}
		if link == nil {
			continue // non-hello traffic from an unknown peer
		}
		d.receiveDatagram(link, typ, payload)
	}
}

// acceptUDPLink registers a virtual-UDP link for raddr. When reply is
// true (we are the acceptor) a hello acknowledgment is sent back.
func (d *Daemon) acceptUDPLink(sock *net.UDPConn, raddr *net.UDPAddr, peer string, reply bool) *Link {
	key := raddr.String()
	tr := &udpTransport{sock: sock, raddr: raddr, tx: d.met.UDPDatagramsTx}
	link := &Link{daemon: d, peer: peer, tr: tr}
	tr.drop = func() {
		d.mutateUDP(func(u *udpDemux) {
			if u.links[key] == link {
				delete(u.links, key)
			}
		})
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	u := d.udp.Load().clone()
	u.links[key] = link
	d.udp.Store(u)
	d.mu.Unlock()
	if err := d.registerLink(link); err != nil {
		return nil
	}
	if reply {
		tr.send(msgHello, helloPayload(helloAck, d.name))
	}
	return link
}

// ConnectUDP establishes a virtual-UDP link to a peer daemon's UDP
// endpoint, opening the local endpoint on an ephemeral port if needed.
// Hellos are retried because datagrams may be lost.
func (d *Daemon) ConnectUDP(addr string) (string, error) {
	d.mu.RLock()
	sock := d.udpSock
	d.mu.RUnlock()
	if sock == nil {
		if _, err := d.ListenUDP("127.0.0.1:0"); err != nil {
			return "", err
		}
		d.mu.RLock()
		sock = d.udpSock
		d.mu.RUnlock()
	}
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return "", err
	}
	key := raddr.String()
	reply := make(chan string, 1)
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return "", errors.New("vnet: daemon closed")
	}
	u := d.udp.Load().clone()
	u.dials[key] = reply
	d.udp.Store(u)
	d.mu.Unlock()
	defer d.mutateUDP(func(u *udpDemux) { delete(u.dials, key) })

	hello := &udpTransport{sock: sock, raddr: raddr, tx: d.met.UDPDatagramsTx}
	deadline := time.After(3 * time.Second)
	for {
		if err := hello.send(msgHello, helloPayload(helloRequest, d.name)); err != nil {
			return "", err
		}
		select {
		case peer := <-reply:
			return peer, nil
		case <-deadline:
			return "", fmt.Errorf("vnet: udp handshake with %s timed out", addr)
		case <-time.After(100 * time.Millisecond):
			// retry the hello
		}
	}
}
