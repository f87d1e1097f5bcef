package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/pkg/api"
	"repro/pkg/client"
)

// clients is the load generator's concurrency: at most two requests in
// flight, over at most two connections.
const clients = 2

// probe holds the client-side layer timings of one traced call.
type probe struct {
	firstByte, bodyDone time.Time
	bytes               int64
	reused              bool
}

type probeKey struct{}

// probeTransport counts response bytes and times the body read of traced
// calls; calls without a probe pass straight through.
type probeTransport struct{ base http.RoundTripper }

func (t probeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if p, ok := req.Context().Value(probeKey{}).(*probe); ok && err == nil {
		resp.Body = &probeBody{ReadCloser: resp.Body, p: p}
	}
	return resp, err
}

type probeBody struct {
	io.ReadCloser
	p *probe
}

func (b *probeBody) Read(buf []byte) (int, error) {
	n, err := b.ReadCloser.Read(buf)
	b.p.bytes += int64(n)
	return n, err
}

func (b *probeBody) Close() error {
	b.p.bodyDone = time.Now()
	return b.ReadCloser.Close()
}

// newClient returns a pkg/client for base with retries off (a shed or an
// error must count as a failure, not be hidden by a retry) and a pool of at
// most two connections.
func newClient(base string, traced bool) *client.Client {
	var rt http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
	if traced {
		rt = probeTransport{rt}
	}
	return client.New(base, client.WithRetries(0), client.WithHTTPClient(&http.Client{Transport: rt}))
}

// outcome is one sent request.
type outcome struct {
	due, sent, done time.Time
	resp            any
	err             error
	probe           *probe // traced runs only
}

// latency is the request's time from when it was due (open loop) or sent
// (closed loop) to its completion.
func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// service is the request's time from send to completion.
func (o *outcome) service() time.Duration { return o.done.Sub(o.sent) }

// call sends one request through pkg/client.
func call(ctx context.Context, c *client.Client, r Request) (any, error) {
	switch r.Kind {
	case "plan":
		v, err := c.Plan(ctx, api.PlanRequest{Shape: r.Shape, Family: r.Family})
		if err != nil {
			return nil, err
		}
		return v, nil
	case "embed":
		v, err := c.Embed(ctx, api.EmbedRequest{Shape: r.Shape, Family: r.Family})
		if err != nil {
			return nil, err
		}
		return v, nil
	default:
		v, err := c.Compare(ctx, api.CompareRequest{Shape: r.Shape, Family: r.Family})
		if err != nil {
			return nil, err
		}
		return v, nil
	}
}

// send issues r at its due time (zero: now) and records the outcome.
func send(c *client.Client, r Request, due time.Time, traced bool) outcome {
	sleepUntil(due)
	var resp any
	o := timeCall(traced, func(ctx context.Context) (err error) { resp, err = call(ctx, c, r); return err })
	o.resp = resp
	if !due.IsZero() {
		o.due = due
	}
	return o
}

// sleepUntil blocks until t.  It sleeps in nanosleep(2) rather than
// time.Sleep, whose wake-ups on Linux round up to the millisecond of the
// runtime's poller and would make every open-loop request about 1 ms late.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
	}
}

// timeCall times one client call; in a traced run it also probes the
// connection, the first response byte and the body read.
func timeCall(traced bool, fn func(ctx context.Context) error) outcome {
	ctx := context.Background()
	o := outcome{sent: time.Now()}
	o.due = o.sent
	if traced {
		p := &probe{}
		o.probe = p
		ctx = context.WithValue(ctx, probeKey{}, p)
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn:              func(info httptrace.GotConnInfo) { p.reused = info.Reused },
			GotFirstResponseByte: func() { p.firstByte = time.Now() },
		})
	}
	o.err = fn(ctx)
	o.done = time.Now()
	return o
}

// closedLoop sends reqs from two clients, each sending its next request
// only when the previous one has completed, and returns the outcomes and
// the elapsed time from the first send to the last completion.
func closedLoop(c *client.Client, reqs []Request, traced bool) ([]outcome, time.Duration) {
	return drive(c, reqs, time.Time{}, 0, traced)
}

// openLoop sends reqs at a fixed arrival rate from two clients: request i
// is due at start + i/rate and is sent as soon as a client is free after
// that.  Latency counts from the due time, so a stall also charges the
// requests queued behind it.
func openLoop(c *client.Client, reqs []Request, rate float64, traced bool) []outcome {
	outs, _ := drive(c, reqs, time.Now().Add(10*time.Millisecond), time.Duration(float64(time.Second)/rate), traced)
	return outs
}

func drive(c *client.Client, reqs []Request, start time.Time, interval time.Duration, traced bool) ([]outcome, time.Duration) {
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				var due time.Time
				if !start.IsZero() {
					due = start.Add(time.Duration(i) * interval)
				}
				outs[i] = send(c, reqs[i], due, traced)
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(t0)
}
