package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// failedOp is the latency recorded for an operation that failed or was
// refused: +∞, so it misses every latency limit and pulls percentiles up.
const failedOp = int64(math.MaxInt64)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted
// latencies in nanoseconds; a failed operation reads as +Inf.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	v := sorted[rank(len(sorted), q)-1]
	if v == failedOp {
		return math.Inf(1)
	}
	return float64(v)
}

// rank is the 1-based nearest rank of the q-quantile among n samples; the
// small tolerance keeps 0.9 × 100 at rank 90 in floating point.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// tailLadder are the percentiles the report may quote, lowest first.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// supported clamps the wanted percentile to the highest rung of the ladder
// that still has at least ten samples beyond it, so a quoted tail is never
// decided by a handful of outliers.
func supported(n int, want float64) float64 {
	best := tailLadder[0]
	for _, q := range tailLadder {
		if q > want {
			break
		}
		if n-rank(n, q) >= 10 {
			best = q
		}
	}
	return best
}

// minP90Samples is the fewest operations a block needs to vote on p90. The
// p90 a run reports is the median of several hundred such votes, so it rests
// on thousands of samples; the ten-samples-beyond rule (supported) governs the
// percentiles taken over all samples of a phase.
const minP90Samples = 20

// blockStat summarises one measured block of one phase.
type blockStat struct {
	ops, failed        int
	tput               float64 // operations per second
	p50, p90, meanNano float64
	at                 int // index of the canary reading taken when the block ended
}

// phase collects the blocks of one kind of operation. An end-to-end metric
// is the median of its per-block values over the blocks measured while the
// host was quiet, so a disturbance of the program's own has to last for
// half the run before it moves one; the quartiles over blocks are printed
// beside it to show how steady the run was.
type phase struct {
	blocks      []blockStat
	ops, failed int
	// host holds the canary's readings; nil counts every block.
	host *host
	// all keeps every latency of the phase for the p99/p99.9 diagnostics;
	// only the trace pass sets keepAll.
	keepAll bool
	all     []int64
}

// add closes a block: lat holds one latency per attempted operation
// (failedOp for failures), dur the wall time the block took, at the index of
// the canary reading taken after it (base.around).
func (p *phase) add(lat []int64, dur time.Duration, at int) {
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b := blockStat{ops: len(lat), at: at}
	sum := 0.0
	for _, v := range lat {
		if v == failedOp {
			b.failed++
			continue
		}
		sum += float64(v)
	}
	if ok := b.ops - b.failed; ok > 0 {
		b.meanNano = sum / float64(ok)
	}
	b.tput = float64(b.ops-b.failed) / dur.Seconds()
	b.p50 = percentile(lat, 0.5)
	b.p90 = math.NaN() // a block whose p90 would be one of its two slowest operations does not vote on it
	if len(lat) >= minP90Samples {
		b.p90 = percentile(lat, 0.9)
	}
	p.blocks = append(p.blocks, b)
	p.ops += b.ops
	p.failed += b.failed
	if p.keepAll {
		p.all = append(p.all, lat...)
	}
}

// quietBlocks returns the blocks measured while the host was quiet
// (host.quietAround), or every block when no canary was read.
func (p *phase) quietBlocks() []blockStat {
	if p.host == nil || len(p.host.readings) == 0 {
		return p.blocks
	}
	var quiet []blockStat
	for _, b := range p.blocks {
		if p.host.quietAround(b.at, quietSpan) {
			quiet = append(quiet, b)
		}
	}
	return quiet
}

// counted returns the blocks the metrics are taken over: the quiet ones, or
// all of them in a run that has none.
func (p *phase) counted() []blockStat {
	if quiet := p.quietBlocks(); len(quiet) > 0 {
		return quiet
	}
	return p.blocks
}

// overBlocks returns the sorted per-block values of one statistic over the
// counted blocks; blocks that did not vote (NaN) are left out.
func (p *phase) overBlocks(f func(blockStat) float64) []float64 {
	blocks := p.counted()
	vs := make([]float64, 0, len(blocks))
	for _, b := range blocks {
		if v := f(b); !math.IsNaN(v) {
			vs = append(vs, v)
		}
	}
	sort.Float64s(vs)
	return vs
}

func blockTput(b blockStat) float64  { return b.tput }
func blockP50us(b blockStat) float64 { return b.p50 / 1e3 }
func blockP90us(b blockStat) float64 { return b.p90 / 1e3 }

func (p *phase) tput() float64  { return median(p.overBlocks(blockTput)) }
func (p *phase) p50us() float64 { return median(p.overBlocks(blockP50us)) }
func (p *phase) p90us() float64 { return median(p.overBlocks(blockP90us)) }

// steadiness prints how many blocks counted and, for each statistic, the
// quartiles over them: how much the run moved while the host was quiet.
func (p *phase) steadiness(name string) {
	fmt.Printf("# blocks: %s%d of %d measured on a quiet host, %d counted\n", name, len(p.quietBlocks()), len(p.blocks), len(p.counted()))
	for _, st := range []struct {
		what string
		f    func(blockStat) float64
	}{{"tput", blockTput}, {"p50_us", blockP50us}, {"p90_us", blockP90us}} {
		vs := p.overBlocks(st.f)
		if len(vs) < 4 {
			continue
		}
		fmt.Printf("# blocks: %s%s over %d blocks: quartiles %.5g %.5g %.5g\n", name, st.what, len(vs), vs[len(vs)/4], median(vs), vs[len(vs)*3/4])
	}
}

// meanNano is the mean latency over the successful operations of the
// counted blocks.
func (p *phase) meanNano() float64 {
	sum, n := 0.0, 0
	for _, b := range p.counted() {
		ok := b.ops - b.failed
		sum += b.meanNano * float64(ok)
		n += ok
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// tailUs is the wanted percentile over all kept samples, clamped by the
// ten-samples-beyond rule.
func (p *phase) tailUs(want float64) float64 {
	sort.Slice(p.all, func(i, j int) bool { return p.all[i] < p.all[j] })
	return percentile(p.all, supported(len(p.all), want)) / 1e3
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the interquartile range of vs as a share of their median,
// the quartiles taken as Python's statistics.quantiles(vs, n=4) does.
func spread(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 { // exclusive method: position k(n+1)/4
		pos := float64(k) * float64(len(s)+1) / 4
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return (q(3) - q(1)) / median(s)
}
