package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"slicc"
	"slicc/internal/queue"
	"slicc/internal/server"
	"slicc/internal/worker"
	"slicc/sdk"
)

// fleetWorkers is the size of fleet_tiny's in-process fleet: one
// single-slot worker per reference-host core.
const fleetWorkers = 2

// rigOptions selects which of sliccd's shapes a rig reproduces.
type rigOptions struct {
	// storeDir is the result store directory (required: every service
	// workload runs sliccd with -store).
	storeDir string
	// distributed adds the durable queue, the dispatcher and the worker
	// fleet: `sliccd -distributed` plus fleetWorkers × `sliccworker -j 1
	// -poll 1s`.
	distributed bool
	// noResponseCache is the one non-default server setting, used only by
	// the traced run's uncached-GET probe.
	noResponseCache bool
	// rec, when set, wraps the handler, the clients and the dispatcher
	// with span recording.
	rec *recorder
}

// rig is one in-process sliccd in the product's default configuration —
// cmd/sliccd's flag defaults: response cache on, store memory tier off,
// Workers = GOMAXPROCS, info-level text logging (written to io.Discard
// here, so the formatting cost is paid and the terminal is not flooded) —
// listening on a loopback port, with an SDK client attached.
type rig struct {
	opts   rigOptions
	eng    *slicc.Engine
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	queue  *queue.Queue

	workers     []*worker.Worker
	stopWorkers context.CancelFunc
	workersDone sync.WaitGroup

	transport *http.Transport
	httpc     *http.Client
	client    *sdk.Client
}

func newRig(o rigOptions) (r *rig, err error) {
	r = &rig{opts: o}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	logger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	engOpts := slicc.EngineOptions{Workers: runtime.GOMAXPROCS(0), StoreDir: o.storeDir, Logger: logger}
	if o.distributed {
		r.queue, err = queue.Open(filepath.Join(o.storeDir, "queue"), queue.Options{Logger: logger})
		if err != nil {
			return r, err
		}
		engOpts.Remote = o.rec.remote(&queue.Dispatcher{Q: r.queue})
	}
	if r.eng, err = slicc.NewEngine(engOpts); err != nil {
		return r, err
	}
	r.srv = server.New(r.eng, server.Options{Logger: logger, Queue: r.queue, NoResponseCache: o.noResponseCache})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return r, err
	}
	r.url = "http://" + ln.Addr().String()
	r.hs = &http.Server{
		Handler:           o.rec.handler(r.srv.Handler()),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	r.served = make(chan error, 1)
	go func() { r.served <- r.hs.Serve(ln) }()

	// The generator never holds more connections than the host has cores.
	nproc := runtime.GOMAXPROCS(0)
	r.transport = &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	r.httpc = &http.Client{Transport: o.rec.transport(r.transport)}
	r.client = sdk.New(r.url, sdk.WithHTTPClient(r.httpc))

	if o.distributed {
		ctx, cancel := context.WithCancel(context.Background())
		r.stopWorkers = cancel
		for i := 0; i < fleetWorkers; i++ {
			wo := worker.Options{
				Server: r.url, StoreDir: o.storeDir, Workers: 1, Poll: time.Second,
				Name: fmt.Sprintf("bench-%d", i), Logger: logger,
			}
			if o.rec != nil {
				wo.Client = &http.Client{Transport: o.rec.transport(http.DefaultTransport)}
			}
			w, err := worker.New(wo)
			if err != nil {
				return r, err
			}
			r.workers = append(r.workers, w)
			r.workersDone.Add(1)
			go func() {
				defer r.workersDone.Done()
				_ = w.Run(ctx) // Run returns nil on cancellation by contract
			}()
		}
	}
	return r, nil
}

// close shuts everything down through the product's own Close/context
// paths, in sliccd's order: workers, listener, server, engine, queue.
func (r *rig) close() error {
	var errs []error
	if r.stopWorkers != nil {
		r.stopWorkers()
		r.workersDone.Wait()
	}
	for _, w := range r.workers {
		errs = append(errs, w.Close())
	}
	if r.transport != nil {
		r.transport.CloseIdleConnections()
	}
	if r.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, r.hs.Shutdown(ctx))
		cancel()
		if err := <-r.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if r.srv != nil {
		errs = append(errs, r.srv.Close())
	}
	if r.eng != nil {
		errs = append(errs, r.eng.Close())
	}
	if r.queue != nil {
		errs = append(errs, r.queue.Close())
	}
	return errors.Join(errs...)
}
