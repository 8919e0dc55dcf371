// vadaptctl runs the adaptation algorithms over a JSON problem
// specification read from a file or stdin, either as a one-shot solve or
// as a live control loop sensing Wren SOAP services.
//
//	vadaptctl -algorithm sa+gh -iterations 10000 problem.json
//	vadaptctl -live http://h1:8001/,http://h2:8002/ -interval 2s problem.json
//
// Specification format:
//
//	{
//	  "hosts": ["a", "b", "c"],
//	  "links": [{"from": 0, "to": 1, "bw": 100, "latency": 1}, ...],
//	  "complete": {"bw": 100, "latency": 1},   // optional: full mesh default
//	  "vms": 2,
//	  "demands": [{"src": 0, "dst": 1, "rate": 5}],
//	  "mapping": [0, 2]                        // optional: current VM placement (-live)
//	}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"freemeasure/internal/control"
	"freemeasure/internal/obs"
	"freemeasure/internal/topology"
	"freemeasure/internal/vadapt"
)

type linkSpec struct {
	From    int     `json:"from"`
	To      int     `json:"to"`
	BW      float64 `json:"bw"`
	Latency float64 `json:"latency"`
}

type demandSpec struct {
	Src  int     `json:"src"`
	Dst  int     `json:"dst"`
	Rate float64 `json:"rate"`
}

type problemSpec struct {
	Hosts    []string   `json:"hosts"`
	Links    []linkSpec `json:"links"`
	Complete *struct {
		BW      float64 `json:"bw"`
		Latency float64 `json:"latency"`
	} `json:"complete"`
	VMs     int          `json:"vms"`
	Demands []demandSpec `json:"demands"`
	Mapping []int        `json:"mapping"`
}

func load(r io.Reader) (*vadapt.Problem, *problemSpec, error) {
	var spec problemSpec
	if err := json.NewDecoder(r).Decode(&spec); err != nil {
		return nil, nil, err
	}
	if len(spec.Hosts) == 0 {
		return nil, nil, fmt.Errorf("no hosts")
	}
	var g *topology.Graph
	if spec.Complete != nil {
		g = topology.Complete(len(spec.Hosts), func(a, b topology.NodeID) (float64, float64) {
			return spec.Complete.BW, spec.Complete.Latency
		})
	} else {
		g = topology.New(len(spec.Hosts))
	}
	for i, h := range spec.Hosts {
		g.SetName(topology.NodeID(i), h)
	}
	for _, l := range spec.Links {
		g.AddEdge(topology.NodeID(l.From), topology.NodeID(l.To), l.BW, l.Latency)
	}
	p := &vadapt.Problem{Hosts: g, NumVMs: spec.VMs}
	for _, d := range spec.Demands {
		p.Demands = append(p.Demands, vadapt.Demand{
			Src: vadapt.VMID(d.Src), Dst: vadapt.VMID(d.Dst), Rate: d.Rate,
		})
	}
	p.Validate()
	return p, &spec, nil
}

// currentMapping resolves the spec's optional "mapping" field; VM i lives
// on host i when it is absent.
func currentMapping(p *vadapt.Problem, spec *problemSpec) ([]topology.NodeID, error) {
	mapping := make([]topology.NodeID, p.NumVMs)
	if len(spec.Mapping) == 0 {
		for i := range mapping {
			mapping[i] = topology.NodeID(i % len(spec.Hosts))
		}
		return mapping, nil
	}
	if len(spec.Mapping) != p.NumVMs {
		return nil, fmt.Errorf("mapping has %d entries for %d VMs", len(spec.Mapping), p.NumVMs)
	}
	for i, h := range spec.Mapping {
		if h < 0 || h >= len(spec.Hosts) {
			return nil, fmt.Errorf("mapping[%d] = %d out of range", i, h)
		}
		mapping[i] = topology.NodeID(h)
	}
	return mapping, nil
}

// runLive senses the problem from the hosts' Wren SOAP services and runs
// vnetd's damped loop, one Controller.Tick per interval, logging each
// decided plan (dry-run: vadaptctl has no overlay to reconfigure). A tick
// within 2 × interval of an applied plan prints "held" and runs no cycle.
// The spec supplies the host list, VM count, demands and current mapping;
// bandwidth and latency come from the live measurements. With metricsAddr
// the controller's operator surface (metrics, pprof, /debug/events,
// /debug/state) is served for the run.
func runLive(p *vadapt.Problem, spec *problemSpec, obj vadapt.Objective,
	endpoints, metricsAddr string, interval time.Duration, cycles, iters int, seed int64) error {
	eps := strings.Split(endpoints, ",")
	for i := range eps {
		eps[i] = strings.TrimSpace(eps[i])
	}
	if len(eps) != len(spec.Hosts) {
		return fmt.Errorf("-live lists %d endpoints for %d hosts", len(eps), len(spec.Hosts))
	}
	mapping, err := currentMapping(p, spec)
	if err != nil {
		return err
	}
	logger := obs.NewLogger(os.Stderr, "vadaptctl", "")
	var reg *obs.Registry
	var flight *obs.FlightRecorder
	if metricsAddr != "" {
		reg = obs.NewRegistry()
		flight = obs.NewFlightRecorder(0)
	}
	ctl, err := control.New(control.Config{
		Source: &control.SOAPSource{
			Hosts:     spec.Hosts,
			Endpoints: eps,
			NumVMs:    p.NumVMs,
			Demands:   p.Demands,
			Mapping:   mapping,
		},
		Applier:   control.LogApplier{Logger: logger},
		Objective: obj,
		SA:        vadapt.SAConfig{Iterations: iters, Seed: seed},
		Interval:  interval,
		Metrics:   control.NewMetrics(reg),
		Logger:    logger,
		Flight:    flight,
	})
	if err != nil {
		return err
	}
	if metricsAddr != "" {
		maddr, err := obs.Serve(metricsAddr, reg, nil,
			obs.WithFlight(flight),
			obs.WithState(ctl.DebugState))
		if err != nil {
			return err
		}
		logger.Info("operator surface up", "url", "http://"+maddr+"/metrics")
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for n := 0; cycles == 0 || n < cycles; n++ {
		if res, ran := ctl.Tick(time.Now()); ran {
			fmt.Println(res.Summary())
		} else {
			fmt.Printf("held (plan applied less than %v ago)\n", 2*interval)
		}
		if cycles != 0 && n == cycles-1 {
			break
		}
		select {
		case <-stop:
			return nil
		case <-tick.C:
		}
	}
	return nil
}

func main() {
	var (
		algo     = flag.String("algorithm", "gh", "gh | sa | sa+gh | enum")
		iters    = flag.Int("iterations", 10000, "annealing iterations")
		seed     = flag.Int64("seed", 1, "annealing seed")
		latC     = flag.Float64("latency-c", 0, "use the bandwidth+latency objective with this constant (0 = bandwidth only)")
		verbose  = flag.Bool("v", false, "print paths")
		live     = flag.String("live", "", "comma-separated Wren SOAP endpoints (one per host): run the control loop over live measurements instead of a one-shot solve")
		interval = flag.Duration("interval", 2*time.Second, "cycle period in -live mode")
		cycles   = flag.Int("cycles", 0, "stop after this many -live cycles (0 = until interrupted)")
		metrics  = flag.String("metrics-addr", "", "in -live mode, serve /metrics, /debug/pprof, /debug/events and /debug/state on this address")
	)
	flag.Parse()
	fatalf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "vadaptctl: "+format+"\n", args...)
		os.Exit(1)
	}

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		in = f
	}
	p, spec, err := load(in)
	if err != nil {
		fatalf("%v", err)
	}
	var obj vadapt.Objective = vadapt.ResidualBW{}
	if *latC > 0 {
		obj = vadapt.BWLatency{C: *latC}
	}

	if *live != "" {
		if err := runLive(p, spec, obj, *live, *metrics, *interval, *cycles, *iters, *seed); err != nil {
			fatalf("%v", err)
		}
		return
	}

	var cfg *vadapt.Config
	switch *algo {
	case "gh":
		cfg = vadapt.Greedy(p)
	case "sa":
		cfg, _ = vadapt.Anneal(p, obj, vadapt.RandomConfig(p, *seed),
			vadapt.SAConfig{Iterations: *iters, Seed: *seed})
	case "sa+gh":
		cfg, _ = vadapt.Anneal(p, obj, vadapt.Greedy(p),
			vadapt.SAConfig{Iterations: *iters, Seed: *seed})
	case "enum":
		cfg, _ = vadapt.Enumerate(p, obj)
	default:
		fatalf("unknown algorithm %q", *algo)
	}
	ev := obj.Evaluate(p, cfg)
	fmt.Printf("objective : %s\n", obj.Name())
	fmt.Printf("score     : %.3f (feasible=%v, bottleneckSum=%.3f)\n", ev.Score, ev.Feasible, ev.Bottleneck)
	for vm, h := range cfg.Mapping {
		fmt.Printf("vm%d -> %s\n", vm, p.Hosts.Name(h))
	}
	if *verbose {
		for i, path := range cfg.Paths {
			fmt.Printf("demand %d (vm%d->vm%d @ %.2f): %v\n",
				i, p.Demands[i].Src, p.Demands[i].Dst, p.Demands[i].Rate, path)
		}
	}
}
