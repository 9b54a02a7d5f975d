package orb

import (
	"math/rand"
	"testing"
	"time"
)

func TestBackoffDeterministicWithoutJitter(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Multiplier: 2}
	want := []time.Duration{
		0,
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		80 * time.Millisecond, // capped
	}
	for n, w := range want {
		if got := b.Delay(n); got != w {
			t.Fatalf("delay(%d) = %v, want %v", n, got, w)
		}
	}
}

func TestBackoffFullJitterBounds(t *testing.T) {
	b := Backoff{
		Base:       10 * time.Millisecond,
		Max:        200 * time.Millisecond,
		Multiplier: 2,
		Jitter:     1,
		Rand:       rand.New(rand.NewSource(7)),
	}
	for n := 1; n <= 6; n++ {
		ceiling := Backoff{Base: b.Base, Max: b.Max, Multiplier: b.Multiplier}.Delay(n)
		for i := 0; i < 200; i++ {
			d := b.Delay(n)
			if d < 0 || d > ceiling {
				t.Fatalf("delay(%d) = %v outside [0, %v]", n, d, ceiling)
			}
		}
	}
}

func TestBackoffJitterSpread(t *testing.T) {
	b := Backoff{
		Base:       20 * time.Millisecond,
		Multiplier: 2,
		Jitter:     1,
		Rand:       rand.New(rand.NewSource(42)),
	}
	const samples = 200
	ceiling := Backoff{Base: b.Base, Multiplier: b.Multiplier}.Delay(3)
	min, max := time.Duration(1<<62), time.Duration(0)
	for i := 0; i < samples; i++ {
		d := b.Delay(3)
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if min == max {
		t.Fatalf("full jitter produced a constant delay %v over %d samples", min, samples)
	}
	// Full jitter draws uniformly over (0, ceiling]: with 200 samples the
	// observed range must cover well over half the interval.
	if spread := max - min; spread < ceiling/2 {
		t.Fatalf("jitter spread %v over %d samples, want at least %v (ceiling %v)", spread, samples, ceiling/2, ceiling)
	}
}

func TestBackoffPartialJitterFloor(t *testing.T) {
	b := Backoff{
		Base:       100 * time.Millisecond,
		Multiplier: 2,
		Jitter:     0.25,
		Rand:       rand.New(rand.NewSource(3)),
	}
	// Jitter 0.25 keeps every delay within [0.75·d, d].
	floor := 75 * time.Millisecond
	for i := 0; i < 200; i++ {
		if d := b.Delay(1); d < floor || d > 100*time.Millisecond {
			t.Fatalf("delay(1) = %v outside [%v, 100ms]", d, floor)
		}
	}
}

func TestBackoffSeededJitterReproducible(t *testing.T) {
	run := func() []time.Duration {
		b := Backoff{Base: 10 * time.Millisecond, Multiplier: 2, Jitter: 1, Rand: rand.New(rand.NewSource(99))}
		out := make([]time.Duration, 0, 8)
		for n := 1; n <= 8; n++ {
			out = append(out, b.Delay(n))
		}
		return out
	}
	a, c := run(), run()
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("seeded jitter not reproducible at round %d: %v vs %v", i+1, a[i], c[i])
		}
	}
}
