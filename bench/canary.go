package main

import (
	"fmt"
	"io"
	"net"
	"sort"
	"time"
)

// canary is the benchmark's reference for the speed of the host: round trips
// of 128 bytes over a loopback TCP connection to an echo goroutine, made of
// package net alone and of nothing in the program under test.
//
// The host this runs on has two speeds, 1.5 times apart, and changes between
// them every few tenths of a second to every few minutes; the canary's median
// round trip reads 7.9 or 11.9 us to within a percent, and every call of
// every workload slows by the same factor at the same moments (README.md,
// "Steadiness"). So the canary is read between the blocks of a run, and a
// block counts only if the readings around it are near the run's quiet level
// (host.quietAround).
type canary struct {
	ln     net.Listener
	conn   net.Conn
	buf    [128]byte
	lat    [canaryTrips]int64
	served chan struct{} // closed when the echo goroutine has returned
}

const (
	// canaryTrips round trips make one reading: about half a millisecond,
	// a few percent of the shortest block.
	canaryTrips = 64
	// quietFactor is how far above the run's quiet level (host.level) a
	// reading may be for the host to count as quiet. Quiet readings lie within 5 % of one
	// another, the slow speed reads 1.5, and a reading taken across a change
	// of speed falls in between.
	quietFactor = 1.08
	// quietSpan is how many readings beyond the two around a block must be
	// quiet as well, on either side. When the host changes speed every few tens of
	// milliseconds a block between two quiet readings has often been slow
	// in the middle; one that has quiet blocks on either side has not.
	quietSpan = 1
)

func newCanary() (*canary, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("canary: %w", err)
	}
	c := &canary{ln: ln, served: make(chan struct{})}
	go func() {
		defer close(c.served)
		peer, err := ln.Accept()
		if err != nil {
			return
		}
		defer peer.Close()
		var buf [128]byte
		for {
			if _, err := io.ReadFull(peer, buf[:]); err != nil {
				return
			}
			if _, err := peer.Write(buf[:]); err != nil {
				return
			}
		}
	}()
	if c.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-c.served
		return nil, fmt.Errorf("canary: %w", err)
	}
	return c, nil
}

// read makes canaryTrips round trips and returns their median, in
// nanoseconds.
func (c *canary) read() (float64, error) {
	t0 := time.Now()
	for i := range c.lat {
		if _, err := c.conn.Write(c.buf[:]); err != nil {
			return 0, fmt.Errorf("canary: %w", err)
		}
		if _, err := io.ReadFull(c.conn, c.buf[:]); err != nil {
			return 0, fmt.Errorf("canary: %w", err)
		}
		t1 := time.Now()
		c.lat[i] = int64(t1.Sub(t0))
		t0 = t1
	}
	sort.Slice(c.lat[:], func(i, j int) bool { return c.lat[i] < c.lat[j] })
	return float64(c.lat[canaryTrips/2]), nil
}

func (c *canary) close() {
	c.conn.Close()
	c.ln.Close()
	<-c.served
}
