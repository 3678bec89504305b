package main

import (
	"math"
	"sort"
	"time"
)

// link is a modelled network link: bandwidth each way in bytes per second
// and a round-trip time. Sync time on it is wire time plus latency plus the
// measured CPU-bound session time.
type link struct {
	Name    string        `json:"name"`
	DownBps float64       `json:"down_bytes_per_s"`
	UpBps   float64       `json:"up_bytes_per_s"`
	RTT     time.Duration `json:"rtt_ns"`
}

var (
	// dslLink is the paper's slow link, as in the latency experiment:
	// 1 Mbit/s down, 256 kbit/s up, 80 ms RTT.
	dslLink = link{Name: "dsl", DownBps: 125_000, UpBps: 32_000, RTT: 80 * time.Millisecond}
	// link10M is 10 Mbit/s symmetric at 50 ms RTT, where wire time and CPU
	// time are of the same order.
	link10M = link{Name: "10m", DownBps: 1_250_000, UpBps: 1_250_000, RTT: 50 * time.Millisecond}
)

// seconds is the modelled sync time in seconds: s2c bytes at the down rate,
// c2s bytes at the up rate, one RTT per roundtrip, plus the session's own
// compute time.
func (l link) seconds(s2c, c2s int64, roundtrips int, compute float64) float64 {
	return float64(s2c)/l.DownBps + float64(c2s)/l.UpBps +
		float64(roundtrips)*l.RTT.Seconds() + compute
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many samples must lie beyond a reported tail percentile.
const tailBeyond = 10

// tail is a high-percentile summary of a sample set.
type tail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

// tailPercentile picks the highest percentile from 99.9, 99, 98, ..., 50
// that leaves at least tailBeyond samples above its nearest-rank value, and
// reports that value with the sample count. With fewer than 2*tailBeyond
// samples no percentile qualifies and the median rank is reported with its
// actual (short) beyond count, which callers must treat as a warning.
func tailPercentile(xs []float64) tail {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return tail{}
	}
	pick := func(p float64) tail {
		// 1-based nearest rank; the epsilon keeps p*n/100 that is a whole
		// number in exact arithmetic (99.9% of 10000) from rounding up.
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if rank < 1 {
			rank = 1
		}
		return tail{Percentile: p, Value: s[rank-1], Samples: n, Beyond: n - rank}
	}
	ladder := []float64{99.9}
	for p := 99; p >= 50; p-- {
		ladder = append(ladder, float64(p))
	}
	for _, p := range ladder {
		if t := pick(p); t.Beyond >= tailBeyond {
			return t
		}
	}
	return pick(50)
}
