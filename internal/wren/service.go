package wren

import (
	"encoding/xml"
	"fmt"
	"time"

	"freemeasure/internal/estimator"
	"freemeasure/internal/soap"
)

// This file is Wren's SOAP interface (paper section 2: "the measurements
// are reported to other applications through a SOAP interface"). VTTIF's
// nonblocking collection calls and any external client use these four
// operations.

// AvailBWRequest asks for the available-bandwidth estimate toward a remote.
type AvailBWRequest struct {
	XMLName xml.Name `xml:"GetAvailableBandwidth"`
	Remote  string   `xml:"remote"`
}

// AvailBWResponse carries the estimate. Found is false when no
// observations exist yet for the remote.
type AvailBWResponse struct {
	XMLName xml.Name `xml:"GetAvailableBandwidthResponse"`
	Found   bool     `xml:"found"`
	Mbps    float64  `xml:"mbps"`
	Kind    string   `xml:"kind"`
	Lo      float64  `xml:"lo"`
	Hi      float64  `xml:"hi"`
	Count   int      `xml:"count"`
	Quality float64  `xml:"quality"`
}

// LatencyRequest asks for the one-way latency estimate toward a remote.
type LatencyRequest struct {
	XMLName xml.Name `xml:"GetLatency"`
	Remote  string   `xml:"remote"`
}

// LatencyResponse carries the latency estimate in milliseconds.
type LatencyResponse struct {
	XMLName xml.Name `xml:"GetLatencyResponse"`
	Found   bool     `xml:"found"`
	Ms      float64  `xml:"ms"`
}

// RemotesRequest lists the remotes this Wren instance has measured.
type RemotesRequest struct {
	XMLName xml.Name `xml:"GetRemotes"`
}

// RemotesResponse lists remote endpoint names.
type RemotesResponse struct {
	XMLName xml.Name `xml:"GetRemotesResponse"`
	Remotes []string `xml:"remote"`
}

// ObservationsRequest streams raw observations newer than SinceNs.
type ObservationsRequest struct {
	XMLName xml.Name `xml:"GetObservations"`
	Remote  string   `xml:"remote"`
	SinceNs int64    `xml:"sinceNs"`
}

// ObservationXML is the wire form of an Observation.
type ObservationXML struct {
	At        int64   `xml:"at"`
	ISRMbps   float64 `xml:"isrMbps"`
	Congested bool    `xml:"congested"`
	TrainLen  int     `xml:"trainLen"`
	MinRTTNs  int64   `xml:"minRttNs"`
}

// ObservationsResponse carries the observation stream, oldest first.
type ObservationsResponse struct {
	XMLName      xml.Name         `xml:"GetObservationsResponse"`
	Observations []ObservationXML `xml:"observation"`
}

// NewService wraps a Monitor in a SOAP dispatcher ready to mount on an
// http server.
func NewService(m *Monitor) *soap.Server {
	s := soap.NewServer()
	s.Handle("GetAvailableBandwidth", func(body []byte) (interface{}, error) {
		var req AvailBWRequest
		if err := xml.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		if req.Remote == "" {
			return nil, fmt.Errorf("GetAvailableBandwidth: empty remote")
		}
		est, ok := m.AvailableBandwidth(req.Remote)
		return &AvailBWResponse{
			Found: ok, Mbps: est.Mbps, Kind: est.Kind.String(),
			Lo: est.Lo, Hi: est.Hi, Count: est.Count, Quality: est.Quality,
		}, nil
	})
	s.Handle("GetLatency", func(body []byte) (interface{}, error) {
		var req LatencyRequest
		if err := xml.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		ms, ok := m.Latency(req.Remote)
		return &LatencyResponse{Found: ok, Ms: ms}, nil
	})
	s.Handle("GetRemotes", func(body []byte) (interface{}, error) {
		return &RemotesResponse{Remotes: m.Remotes()}, nil
	})
	s.Handle("GetObservations", func(body []byte) (interface{}, error) {
		var req ObservationsRequest
		if err := xml.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		obs := m.Observations(req.Remote, req.SinceNs)
		resp := &ObservationsResponse{}
		for _, o := range obs {
			resp.Observations = append(resp.Observations, ObservationXML{
				At: o.At, ISRMbps: o.RateMbps, Congested: o.Congested,
				TrainLen: o.TrainLen, MinRTTNs: o.MinRTT,
			})
		}
		return resp, nil
	})
	return s
}

// Client is a typed client for a remote Wren SOAP endpoint.
type Client struct {
	soap soap.Client
}

// NewClient creates a client for the endpoint URL with no call timeout
// (a hung endpoint hangs the caller; see SetTimeout).
func NewClient(url string) *Client {
	return &Client{soap: soap.Client{URL: url}}
}

// SetTimeout bounds every subsequent call (dial through response body).
// Control loops that sense over SOAP must set one: an unreachable or
// wedged endpoint otherwise stalls the whole sense phase indefinitely.
func (c *Client) SetTimeout(d time.Duration) {
	c.soap.Timeout = d
}

// AvailableBandwidth queries the estimate toward remote.
func (c *Client) AvailableBandwidth(remote string) (estimator.Estimate, bool, error) {
	var resp AvailBWResponse
	if err := c.soap.Call(&AvailBWRequest{Remote: remote}, &resp); err != nil {
		return estimator.Estimate{}, false, err
	}
	kind := estimator.Exact
	switch resp.Kind {
	case estimator.LowerBound.String():
		kind = estimator.LowerBound
	case estimator.UpperBound.String():
		kind = estimator.UpperBound
	}
	return estimator.Estimate{Mbps: resp.Mbps, Kind: kind, Lo: resp.Lo, Hi: resp.Hi,
		Count: resp.Count, Quality: resp.Quality}, resp.Found, nil
}

// Latency queries the one-way latency toward remote in milliseconds.
func (c *Client) Latency(remote string) (float64, bool, error) {
	var resp LatencyResponse
	if err := c.soap.Call(&LatencyRequest{Remote: remote}, &resp); err != nil {
		return 0, false, err
	}
	return resp.Ms, resp.Found, nil
}

// Remotes lists endpoints the Wren instance has measured.
func (c *Client) Remotes() ([]string, error) {
	var resp RemotesResponse
	if err := c.soap.Call(&RemotesRequest{}, &resp); err != nil {
		return nil, err
	}
	return resp.Remotes, nil
}

// Observations fetches raw observations newer than sinceNs.
func (c *Client) Observations(remote string, sinceNs int64) ([]estimator.Observation, error) {
	var resp ObservationsResponse
	if err := c.soap.Call(&ObservationsRequest{Remote: remote, SinceNs: sinceNs}, &resp); err != nil {
		return nil, err
	}
	var out []estimator.Observation
	for _, o := range resp.Observations {
		out = append(out, estimator.Observation{
			At: o.At, RateMbps: o.ISRMbps, Congested: o.Congested,
			TrainLen: o.TrainLen, MinRTT: o.MinRTTNs,
		})
	}
	return out, nil
}
