// wrenrepod runs a Wren trace repository: forwarders (e.g. vnetd with
// -forward) ship filtered packet traces here, the repository analyzes them
// centrally, and every origin's measurements are served over SOAP at
// /origins/<name>/. GET /origins lists the origins.
//
// The repository also feeds the coordination tier: analyzed path
// observations land in a pluggable store (-store), and a versioned
// bandwidth map built from that store is atomically published at /map —
// the artifact wrenctl map and vnetd -map-url consume.
//
//	wrenrepod -listen 127.0.0.1:7000 -http 127.0.0.1:7080 -store file:/var/lib/wren/coord.log
//	curl http://127.0.0.1:7080/origins
//	curl http://127.0.0.1:7080/map
//	wrenctl -url http://127.0.0.1:7080/origins/hostA/ remotes
//	wrenctl -url http://127.0.0.1:7080/ map
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"freemeasure/internal/obs"
	"freemeasure/internal/wren"
	"freemeasure/internal/wren/coord"
)

// meteredStore is what both coord backends provide: the Store contract
// plus metric attachment.
type meteredStore interface {
	coord.Store
	SetMetrics(coord.StoreMetrics)
}

// openStore parses the -store flag: "mem" or "file:PATH".
func openStore(spec string) (meteredStore, error) {
	switch {
	case spec == "mem":
		return coord.NewMemStore(), nil
	case strings.HasPrefix(spec, "file:"):
		path := strings.TrimPrefix(spec, "file:")
		if path == "" {
			return nil, fmt.Errorf("-store file: needs a path")
		}
		return coord.OpenFileStore(path)
	default:
		return nil, fmt.Errorf("unknown -store %q (want mem or file:PATH)", spec)
	}
}

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:7000", "address for trace forwarders")
		httpAddr  = flag.String("http", "127.0.0.1:7080", "address for the SOAP/HTTP interface")
		poll      = flag.Duration("poll", 500*time.Millisecond, "analysis poll interval")
		storeSpec = flag.String("store", "mem", `observation store backend: "mem" or "file:PATH" (persistent append log)`)
		mapEvery  = flag.Duration("map-interval", 2*time.Second, "bandwidth map rebuild interval")
		metrics   = flag.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (see docs/OPERATIONS.md)")
	)
	flag.Parse()
	logger := obs.NewLogger(os.Stderr, "wrenrepod", "")
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	store, err := openStore(*storeSpec)
	if err != nil {
		fatal("store", "spec", *storeSpec, "err", err)
	}
	defer store.Close()
	pub := coord.NewPublisher()

	repo := wren.NewRepository(wren.Config{
		Scan: wren.ScanConfig{MaxGap: 20_000_000, BurstGap: 1_000_000},
	})
	// The repository is a trace member like any daemon: report-ingest
	// spans land here under the forwarder's trace context, so a merged
	// mesh trace can follow a report batch across the wire.
	flight := obs.NewFlightRecorder(0)
	repo.SetFlight(flight)
	pub.SetFlight(flight)
	if *metrics != "" {
		reg := obs.NewRegistry()
		repo.SetMetrics(wren.NewRepositoryMetrics(reg))
		cm := coord.NewMetrics(reg)
		store.SetMetrics(cm.Store)
		pub.SetMetrics(cm.Map)
		reg.GaugeFunc("wren_repo_origins",
			"Origin hosts that have shipped traces.",
			func() float64 { return float64(len(repo.Origins())) })
		maddr, err := obs.Serve(*metrics, reg, nil, obs.WithFlight(flight))
		if err != nil {
			fatal("metrics-addr", "err", err)
		}
		logger.Info("metrics/pprof up", "url", "http://"+maddr+"/metrics")
	}
	addr, err := repo.Listen(*listen)
	if err != nil {
		fatal("listen", "addr", *listen, "err", err)
	}
	logger.Info("accepting traces", "addr", addr)

	// Analysis loop: poll the monitors, then push any new path
	// observations into the coordination store. The monitors report the
	// same observation poll after poll; lastAt skips those, because every
	// Put bumps the store version and the map loop republishes on any
	// version change.
	go func() {
		lastAt := make(map[coord.Path]int64)
		for range time.Tick(*poll) {
			repo.PollAll()
			for _, po := range repo.Scan() {
				rec := po.Record()
				if rec.At == 0 || lastAt[rec.Path] == rec.At {
					continue
				}
				if _, err := store.Put(rec); err != nil {
					logger.Warn("store put", "path", rec.Path, "err", err)
					continue
				}
				lastAt[rec.Path] = rec.At
			}
		}
	}()

	// Map loop: rebuild from the store and publish whenever the store
	// version moved. A failed rebuild leaves the last good map published —
	// the generation never goes backwards.
	go func() {
		var lastVer uint64
		for range time.Tick(*mapEvery) {
			if v := store.Version(); v == lastVer && pub.Current() != nil {
				continue
			}
			m, err := coord.BuildMap(store, time.Now())
			if err != nil {
				logger.Warn("map rebuild", "err", err)
				continue
			}
			lastVer = m.StoreVersion
			stamped := pub.Publish(m)
			logger.Info("bandwidth map published",
				"generation", stamped.Generation, "entries", len(stamped.Entries),
				"store_version", stamped.StoreVersion)
		}
	}()

	var mu sync.Mutex
	services := make(map[string]http.Handler)
	mux := http.NewServeMux()
	mux.Handle("/map", pub)
	mux.HandleFunc("/origins", func(w http.ResponseWriter, r *http.Request) {
		for _, o := range repo.Origins() {
			fmt.Fprintln(w, o)
		}
	})
	mux.HandleFunc("/origins/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/origins/")
		origin := strings.SplitN(rest, "/", 2)[0]
		m, ok := repo.Monitor(origin)
		if !ok {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		svc, cached := services[origin]
		if !cached {
			svc = wren.NewService(m)
			services[origin] = svc
		}
		mu.Unlock()
		svc.ServeHTTP(w, r)
	})
	logger.Info("SOAP/HTTP up", "url", "http://"+*httpAddr+"/origins")
	go func() {
		if err := http.ListenAndServe(*httpAddr, mux); err != nil {
			fatal("http", "err", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	batches, records := repo.Received()
	logger.Info("shutting down", "batches", batches, "records", records)
	repo.Close()
}
