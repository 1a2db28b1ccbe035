package link

import (
	"testing"
	"testing/quick"
)

func fullDuplexCfg() Config {
	return Config{
		PropagationNs: 20,
		ReqBW:         32,
		RspBW:         32,
	}
}

func TestIdleDelivery(t *testing.T) {
	l := New(fullDuplexCfg(), 1)
	got := l.Send(100, Rsp, 64)
	want := 100.0 + 64.0/32.0 + 20.0
	if got != want {
		t.Fatalf("Send = %v, want %v", got, want)
	}
}

func TestDirectionsIndependentWhenFullDuplex(t *testing.T) {
	l := New(fullDuplexCfg(), 1)
	// Saturate the request direction.
	for i := 0; i < 100; i++ {
		l.Send(0, Req, 64)
	}
	// Response direction should still deliver at idle latency.
	got := l.Send(0, Rsp, 64)
	want := 64.0/32.0 + 20.0
	if got != want {
		t.Fatalf("Rsp delivery = %v, want %v (uncontended)", got, want)
	}
}

func TestHalfDuplexShares(t *testing.T) {
	cfg := fullDuplexCfg()
	cfg.HalfDuplex = true

	// Read-shaped traffic (small requests, large responses) should keep
	// most of the shared capacity on the response direction.
	throughput := func(reqBytes, rspBytes float64) float64 {
		l := New(cfg, 1)
		var last float64
		const n = 5000
		for i := 0; i < n; i++ {
			l.Send(0, Req, reqBytes)
			last = l.Send(0, Rsp, rspBytes)
		}
		return n * rspBytes / (last - cfg.PropagationNs)
	}
	readOnly := throughput(16, 80) // read command + data response
	balanced := throughput(80, 80) // write data up, read data down
	if readOnly <= balanced {
		t.Fatalf("half-duplex response throughput: read-shaped %v <= balanced %v", readOnly, balanced)
	}
	// Read-shaped responses should get well over half the link.
	if readOnly < cfg.ReqBW*0.6 {
		t.Fatalf("read-shaped response throughput %v too low for %v shared", readOnly, cfg.ReqBW)
	}
}

func TestHalfDuplexAggregateCapped(t *testing.T) {
	cfg := fullDuplexCfg()
	cfg.HalfDuplex = true
	l := New(cfg, 1)
	var lastReq, lastRsp float64
	const n = 5000
	for i := 0; i < n; i++ {
		lastReq = l.Send(0, Req, 64)
		lastRsp = l.Send(0, Rsp, 64)
	}
	end := lastReq
	if lastRsp > end {
		end = lastRsp
	}
	agg := 2 * n * 64 / (end - cfg.PropagationNs)
	if agg > cfg.ReqBW*1.02 {
		t.Fatalf("half-duplex aggregate %v exceeds shared capacity %v", agg, cfg.ReqBW)
	}
}

func TestBandwidthBound(t *testing.T) {
	l := New(fullDuplexCfg(), 1)
	const n = 10000
	var last float64
	for i := 0; i < n; i++ {
		last = l.Send(0, Rsp, 64)
	}
	gbs := float64(n) * 64 / (last - 20) // subtract propagation
	if gbs > 32.01 {
		t.Fatalf("achieved %v GB/s over a 32 GB/s direction", gbs)
	}
	if gbs < 31 {
		t.Fatalf("back-to-back stream achieved only %v GB/s", gbs)
	}
}

func TestCreditBackpressure(t *testing.T) {
	cfg := fullDuplexCfg()
	cfg.Credits = 4
	cfg.CreditReturnNs = 500
	l := New(cfg, 1)
	// First 4 sends ride free credits; the 5th must wait for credit 0.
	var times []float64
	for i := 0; i < 5; i++ {
		times = append(times, l.Send(0, Req, 64))
	}
	if times[3] >= 500 {
		t.Fatalf("4th send already back-pressured: %v", times[3])
	}
	if times[4] < 500 {
		t.Fatalf("5th send not back-pressured: %v (credit return 500)", times[4])
	}
}

func TestRetryCounting(t *testing.T) {
	cfg := fullDuplexCfg()
	cfg.RetryProb = 1.0
	cfg.RetryPenaltyNs = 100
	l := New(cfg, 1)
	got := l.Send(0, Req, 64)
	if l.Retries() != 1 {
		t.Fatalf("Retries = %d, want 1", l.Retries())
	}
	want := 64.0/32.0 + 100 + 20
	if got != want {
		t.Fatalf("retried delivery = %v, want %v", got, want)
	}
}

func TestResetRestoresIdle(t *testing.T) {
	cfg := fullDuplexCfg()
	cfg.Credits = 2
	cfg.CreditReturnNs = 1000
	l := New(cfg, 1)
	for i := 0; i < 10; i++ {
		l.Send(0, Req, 64)
	}
	l.Reset()
	got := l.Send(0, Req, 64)
	want := 64.0/32.0 + 20.0
	if got != want {
		t.Fatalf("post-Reset Send = %v, want %v", got, want)
	}
}

func TestDeliveryNeverBeforeArrival(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := fullDuplexCfg()
		cfg.Credits = 8
		cfg.CreditReturnNs = 50
		cfg.RetryProb = 0.05
		cfg.RetryPenaltyNs = 30
		l := New(cfg, seed)
		now := 0.0
		for i := 0; i < 300; i++ {
			dir := Req
			if i%3 == 0 {
				dir = Rsp
			}
			d := l.Send(now, dir, 64)
			if d < now+cfg.PropagationNs {
				return false
			}
			now += 1.5
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLinkSend times one read's link traffic, a header-only
// request flit and a data flit back 100 ns later, for requests 5 ns
// apart (the spacing of BenchmarkCXLAccess). full-duplex has the CXL-B
// expander's link, half-duplex the CXL-C one's, which also pays the
// traffic-share bandwidth split.
func BenchmarkLinkSend(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"full-duplex", Config{PropagationNs: 24, ReqBW: 28, RspBW: 28,
			RetryProb: 0.0002, RetryPenaltyNs: 120, Credits: 64, CreditReturnNs: 150}},
		{"half-duplex", Config{PropagationNs: 40, ReqBW: 30, RspBW: 30, HalfDuplex: true, TurnaroundNs: 6,
			RetryProb: 0.001, RetryPenaltyNs: 250, Credits: 96, CreditReturnNs: 180}},
	} {
		b.Run(c.name, func(b *testing.B) {
			l := New(c.cfg, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := float64(i+1) * 5
				l.Send(now, Req, 16)
				l.Send(now+100, Rsp, 80)
			}
		})
	}
}
