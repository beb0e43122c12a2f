package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"

	"sx4bench/internal/serve"
)

// daemon is an in-process sx4d behind a loopback net/http server.
type daemon struct {
	base string
	hs   *http.Server
	done chan error
	hc   *http.Client
}

// sx4d is the handler cmd/sx4d mounts: serve.New with default limits
// and the wall clock.
func sx4d() http.Handler { return serve.New(serve.Config{Now: time.Now}) }

func startDaemon(h http.Handler, conns int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		base: "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: h},
		done: make(chan error, 1),
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the server down and waits for its goroutine to return.
func (d *daemon) stop() error {
	d.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// answer is one HTTP exchange as the client saw it.
type answer struct {
	status int
	body   []byte
	err    error
}

// send makes one request. The answer's body aliases buf when buf is
// not nil, so a caller that sends in a loop reuses one buffer.
func (d *daemon) send(method, path string, body []byte, buf *bytes.Buffer) answer {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return answer{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.hc.Do(req)
	if err != nil {
		return answer{err: err}
	}
	defer resp.Body.Close()
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return answer{status: resp.StatusCode, body: buf.Bytes(), err: err}
}

// phase is the outcome of one timed list of requests. A list goes out
// in chunks, interleaved with the chunks of the workload's other
// lists, so each list is measured across the whole run rather than in
// one stretch of it.
type phase struct {
	latMS     []float64 // per request, in send order; a failed request counts as +Inf
	lagMS     []float64 // open loop: send start minus due time; closed loop: client turnaround
	sent      int
	chunkWall []time.Duration
	chunkOK   []int
}

// chunks is the number of parts each list is sent in.
const chunks = 20

// chunk returns part k of chunks of a list.
func chunk(list []request, k int) []request {
	return list[k*len(list)/chunks : (k+1)*len(list)/chunks]
}

func (p *phase) add(q phase) {
	p.latMS = append(p.latMS, q.latMS...)
	p.lagMS = append(p.lagMS, q.lagMS...)
	p.sent += q.sent
	p.chunkWall = append(p.chunkWall, q.chunkWall...)
	p.chunkOK = append(p.chunkOK, q.chunkOK...)
}

// rate is OK requests per second over the list's chunks, and listTime
// the time the whole list took: the sum of its chunks' wall times.
func (p phase) rate() float64 {
	ok := 0
	for _, n := range p.chunkOK {
		ok += n
	}
	return float64(ok) / p.listTime().Seconds()
}

func (p phase) listTime() time.Duration {
	var t time.Duration
	for _, w := range p.chunkWall {
		t += w
	}
	return t
}

// runSetup answers every set-up request once, in order, and returns the
// time from serve.New to the last answer.
func runSetup(h func() http.Handler, conns int, reqs []request, g *gate) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(h(), conns)
	if err != nil {
		return nil, 0, err
	}
	for i := range reqs {
		a := d.send(http.MethodPost, reqs[i].Path, reqs[i].Body, nil)
		if !g.check(&reqs[i], a) {
			d.stop()
			return nil, 0, fmt.Errorf("set-up request %s failed: %s", reqs[i].Body, g.firstFailure())
		}
	}
	return d, time.Since(t0), nil
}

// closedLoop sends each list on its own connection, back to back, and
// measures each request from its send to the last response byte.
func closedLoop(d *daemon, lists [][]request, g *gate) phase {
	lat := make([][]float64, len(lists))
	lag := make([][]float64, len(lists))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c, list := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			prev := time.Time{}
			for i := range list {
				start := time.Now()
				if !prev.IsZero() {
					lag[c] = append(lag[c], ms(start.Sub(prev)))
				}
				a := d.send(http.MethodPost, list[i].Path, list[i].Body, &buf)
				end := time.Now()
				l := ms(end.Sub(start))
				if !g.check(&list[i], a) {
					l = inf
				}
				lat[c] = append(lat[c], l)
				prev = end
			}
		}()
	}
	wg.Wait()
	p := phase{chunkWall: []time.Duration{time.Since(t0)}}
	ok := 0
	for c := range lists {
		p.latMS = append(p.latMS, lat[c]...)
		p.lagMS = append(p.lagMS, lag[c]...)
		p.sent += len(lat[c])
		ok += len(lat[c]) - countInf(lat[c])
	}
	p.chunkOK = []int{ok}
	return p
}

// openLoop sends each request at its due time, counted from the first
// request's, on one of conns connections, whatever the state of earlier
// requests, and measures it from the due time, so a stall counts
// against every request it delays.
func openLoop(d *daemon, reqs []request, conns int, g *gate) phase {
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, len(reqs)) // sized to the number of sends: the dispatcher never blocks
	lat := make([]float64, len(reqs))
	lag := make([]float64, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for j := range jobs {
				lag[j.i] = ms(time.Since(j.due))
				a := d.send(http.MethodPost, reqs[j.i].Path, reqs[j.i].Body, &buf)
				lat[j.i] = ms(time.Since(j.due))
				if !g.check(&reqs[j.i], a) {
					lat[j.i] = inf
				}
			}
		}()
	}
	t0 := time.Now()
	for i := range reqs {
		due := t0.Add(reqs[i].Due - reqs[0].Due)
		// An idle Go runtime wakes a timer only to the millisecond, and
		// arrivals are a quarter of that apart, so short waits sleep in
		// the kernel instead.
		if wait := time.Until(due); wait > 2*time.Millisecond {
			time.Sleep(wait)
		} else if wait > 0 {
			ts := syscall.NsecToTimespec(wait.Nanoseconds())
			syscall.Nanosleep(&ts, nil)
		}
		jobs <- job{i: i, due: due}
	}
	close(jobs)
	wg.Wait()
	return phase{latMS: lat, lagMS: lag, sent: len(reqs)}
}
