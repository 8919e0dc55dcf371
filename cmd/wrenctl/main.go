// wrenctl queries a Wren SOAP endpoint (as served by vnetd -soap) or a
// wrenrepod coordination endpoint.
//
//	wrenctl -url http://127.0.0.1:8001/ remotes
//	wrenctl -url http://127.0.0.1:8001/ bw hostB
//	wrenctl -url http://127.0.0.1:8001/ latency hostB
//	wrenctl -url http://127.0.0.1:8001/ obs hostB
//	wrenctl -url http://127.0.0.1:7080/ map
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"freemeasure/internal/wren"
	"freemeasure/internal/wren/coord"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: wrenctl -url URL {remotes | bw REMOTE | latency REMOTE | obs REMOTE [SINCE_NS]| map}")
	os.Exit(2)
}

// fetchMap GETs and validates the bandwidth map from base+"map".
func fetchMap(base string) (*coord.BandwidthMap, error) {
	url := strings.TrimSuffix(base, "/") + "/map"
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("no bandwidth map published yet at %s", url)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	return coord.ParseBandwidthMap(data)
}

// printMap renders a parsed map for operators: header first, then one
// line per path.
func printMap(w io.Writer, m *coord.BandwidthMap) {
	fmt.Fprintf(w, "epoch=%d (%s) generation=%d store_version=%d paths=%d\n",
		m.Epoch, time.Unix(m.Epoch, 0).UTC().Format(time.RFC3339),
		m.Generation, m.StoreVersion, len(m.Entries))
	for _, e := range m.Entries {
		fmt.Fprintf(w, "%s\t%.2f Mbit/s", e.Path, e.Mbps)
		if e.LatencyMs > 0 {
			fmt.Fprintf(w, "\t%.3f ms", e.LatencyMs)
		}
		if e.Kind != "" {
			fmt.Fprintf(w, "\t%s", e.Kind)
		}
		if e.Quality > 0 {
			fmt.Fprintf(w, "\tq=%.2f", e.Quality)
		}
		if e.At > 0 {
			fmt.Fprintf(w, "\tat=%s", time.Unix(0, e.At).UTC().Format(time.RFC3339Nano))
		}
		fmt.Fprintln(w)
	}
}

func main() {
	url := flag.String("url", "http://127.0.0.1:8001/", "Wren SOAP endpoint")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	c := wren.NewClient(*url)
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "wrenctl:", err)
		os.Exit(1)
	}
	switch args[0] {
	case "remotes":
		remotes, err := c.Remotes()
		if err != nil {
			die(err)
		}
		for _, r := range remotes {
			fmt.Println(r)
		}
	case "bw":
		if len(args) < 2 {
			usage()
		}
		est, found, err := c.AvailableBandwidth(args[1])
		if err != nil {
			die(err)
		}
		if !found {
			fmt.Println("no estimate")
			return
		}
		fmt.Printf("%.2f Mbit/s (%s, bracket %.2f..%.2f, %d observations, quality %.2f)\n",
			est.Mbps, est.Kind, est.Lo, est.Hi, est.Count, est.Quality)
	case "latency":
		if len(args) < 2 {
			usage()
		}
		ms, found, err := c.Latency(args[1])
		if err != nil {
			die(err)
		}
		if !found {
			fmt.Println("no estimate")
			return
		}
		fmt.Printf("%.3f ms\n", ms)
	case "obs":
		if len(args) < 2 {
			usage()
		}
		since := int64(0)
		if len(args) >= 3 {
			v, err := strconv.ParseInt(args[2], 10, 64)
			if err != nil {
				die(err)
			}
			since = v
		}
		obs, err := c.Observations(args[1], since)
		if err != nil {
			die(err)
		}
		for _, o := range obs {
			fmt.Printf("at=%d isr=%.2fMbps congested=%v train=%d minRtt=%.3fms\n",
				o.At, o.RateMbps, o.Congested, o.TrainLen, float64(o.MinRTT)/1e6)
		}
	case "map":
		m, err := fetchMap(*url)
		if err != nil {
			die(err)
		}
		printMap(os.Stdout, m)
	default:
		usage()
	}
}
