package main

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"sync"
	"time"
)

// The host this benchmark runs on is a few virtual processors of a shared
// machine, and their speed is not constant: the same loop of signatures runs
// 30–40 % faster in one quarter of an hour than in the next, with level
// shifts that outlast a run. Every time-valued figure inherits that, and no
// statistic over the windows of one run can take it out again.
//
// So a run measures the host beside the program. The calibrator times a
// fixed burst of work every calEvery from the first set-up to the last churn
// burst: calOps P-256 signatures with their verification, taken from the Go
// standard library and not from this repository, so that no change to the
// program changes it. A burst takes ≈2.5 ms, a fortieth of one processor. The
// speed of a span of the run is the upper quartile of the bursts' speeds
// within it — a burst that was interrupted reads slow, never fast — and each
// time-valued end-to-end figure is restated at referenceSpeed: a time is
// multiplied by speed/referenceSpeed, a rate divided by it. The result file
// keeps the speeds and the figures as measured beside the restated ones.
const (
	calEvery = 100 * time.Millisecond
	calOps   = 20
	// referenceSpeed is the speed time-valued figures are restated at, in
	// signature-and-verification pairs per second: what the sizing host (Xeon
	// 2.1 GHz, 2 vCPUs) gives a burst when nothing disturbs it.
	referenceSpeed = 7800.0
	// minBursts is how many bursts a span must hold for its speed to be
	// taken from them; a shorter span is given the whole run's.
	minBursts = 4
)

type burst struct {
	at    time.Time
	speed float64 // pairs per second
}

type calibrator struct {
	mu     sync.Mutex
	bursts []burst
	once   sync.Once
	quit   chan struct{}
	done   chan struct{}
}

func startCalibrator() (*calibrator, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	digest := sha256.Sum256([]byte("argus benchmark calibration"))
	c := &calibrator{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		tick := time.NewTicker(calEvery)
		defer tick.Stop()
		for {
			select {
			case <-c.quit:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			for i := 0; i < calOps; i++ {
				sig, err := ecdsa.SignASN1(rand.Reader, key, digest[:])
				if err != nil || !ecdsa.VerifyASN1(&key.PublicKey, digest[:], sig) {
					return // cannot happen; a calibrator that stops is seen as too few bursts
				}
			}
			b := burst{at: t0, speed: calOps / time.Since(t0).Seconds()}
			c.mu.Lock()
			c.bursts = append(c.bursts, b)
			c.mu.Unlock()
		}
	}()
	return c, nil
}

// stop ends the calibrator and waits for it; it may be called again.
func (c *calibrator) stop() {
	c.once.Do(func() { close(c.quit) })
	<-c.done
}

// speed is the host's speed between from and to: the upper quartile of the
// bursts that began in the span, or of all bursts when the span holds fewer
// than minBursts.
func (c *calibrator) speed(from, to time.Time) windowed {
	c.mu.Lock()
	defer c.mu.Unlock()
	var in, all []float64
	for _, b := range c.bursts {
		all = append(all, b.speed)
		if !b.at.Before(from) && b.at.Before(to) {
			in = append(in, b.speed)
		}
	}
	if len(in) < minBursts {
		in = all
	}
	return windowQuiet("1/s", in, quietUpper, len(in))
}

// restated returns the figure at referenceSpeed given the speed it was
// measured at: a time (or a cost in time) scales with the speed, a rate
// against it. A speed of 0 — no burst was timed — leaves it as measured.
func restated(w windowed, speed float64, rate bool) windowed {
	if speed <= 0 {
		return w
	}
	k := speed / referenceSpeed
	if rate {
		k = 1 / k
	}
	out := w
	out.Value *= k
	out.Windows = make([]float64, len(w.Windows))
	for i, v := range w.Windows {
		out.Windows[i] = v * k
	}
	return out
}
