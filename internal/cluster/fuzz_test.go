package cluster

import (
	"encoding/json"
	"testing"
)

// FuzzChaosReplay drives the chaos -replay path with arbitrary JSON:
// whatever decodes into a Config and passes Validate must run audited to a
// result or an error, never a panic, with every offered request accounted
// for exactly once, and identically on a second run. Sizes and cycle knobs
// are clamped so every input runs in at most a fraction of a second.
func FuzzChaosReplay(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"structure":"HM","variant":4,"rate":50,"requests":8,"warmup":8,"log_cap":1}`,
		`{"structure":"LL","variant":4,"rate":400,"requests":16,"warmup":8,"log_cap":1}`,
		`{"structure":"HM","variant":4,"nodes":3,"replicas":2,"quorum":2,"rate":40,"requests":16,"warmup":16,"req_deadline":120000,"retry_max":4,"hedge_quantile":0.95,"shed_high_water":48,"heartbeat_every":4000,"lease_cycles":16000,"break_dedup":true,"chaos":{"seed":3,"drop":0.05,"dup":0.2,"delay":0.1,"delay_mult":10,"reorder":0.1,"partitions":[{"from":1000,"to":60000,"group":[0]}],"grays":[{"from":0,"to":90000,"node":1,"slow":8}]},"seed":7}`,
		`{"structure":"BT","variant":3,"nodes":3,"replicas":2,"quorum":2,"rate":300,"requests":16,"warmup":16,"batch_max":4,"batch_deadline":4000,"crash_at":20000,"crash_node":1,"recover_after":30000,"rebalance_every":5000,"seed":2}`,
		`{"structure":"VT","variant":4,"rate":200,"requests":12,"warmup":8,"zipf":1.2,"get_frac":0.5,"seed":5}`,
		`{"structure":"HM","variant":4,"rate":50,"crash_at":120000,"recover_after":18446744073709491615}`,
		`{"structure":"QQ","variant":9,"rate":-1}`,
		`{"structure":"HM","variant":4,"rate":40,"requests":8,"warmup":8,"req_deadline":120000,"heartbeat_every":400}`,
		`{"structure":"HM","variant":4,"nodes":4,"replicas":3,"rate":400,"requests":24,"warmup":24,"req_deadline":120000,"heartbeat_every":4000,"chaos":{"seed":1,"delay":0.9,"delay_mult":20}}`,
		// A primary that crashes and restarts inside its lease, under drops:
		// it catches its ranges up from another owner and rejoins.
		`{"structure":"HM","variant":4,"nodes":3,"replicas":2,"quorum":1,"rate":300,"requests":24,"warmup":16,"batch_max":4,"batch_deadline":4000,"req_deadline":120000,"retry_max":4,"heartbeat_every":4000,"lease_cycles":16000,"crash_at":40000,"crash_node":1,"recover_after":5000,"chaos":{"seed":8,"drop":0.15},"seed":9}`,
		// Live nodes with a gap in a range whose primary is down and not
		// yet suspected: their first repair fetches go to the crashed node.
		`{"structure":"LL","variant":4,"nodes":3,"replicas":3,"quorum":2,"rate":2000,"requests":24,"warmup":16,"req_deadline":120000,"retry_max":2,"heartbeat_every":4000,"lease_cycles":16000,"crash_at":9000,"crash_node":0,"chaos":{"seed":6,"drop":0.2,"reorder":0.3},"seed":11}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cfg Config
		if err := json.Unmarshal(data, &cfg); err != nil {
			return // not a config; nothing to check
		}
		clampForFuzz(&cfg)
		if cfg.Validate() != nil {
			return
		}
		res, err := RunAudited(cfg)
		if err != nil {
			return // a config the fleet cannot run (say, a tiny undo log) is an error
		}
		if res.Audit == nil {
			t.Fatal("audited run returned no audit")
		}
		st := res.Stats
		if sum := st.Completed + st.Dropped + st.Shed + st.TimedOut + st.Failed + st.Unavailable; sum != st.Offered {
			t.Fatalf("%d requests accounted for, %d offered", sum, st.Offered)
		}
		again, err := RunAudited(cfg)
		if err != nil {
			t.Fatalf("second run failed: %v", err)
		}
		a, _ := json.Marshal(res)
		b, _ := json.Marshal(again)
		if string(a) != string(b) {
			t.Fatal("RunAudited is not deterministic")
		}
	})
}

// clampForFuzz bounds the sizes and periods that set a run's cost, on the
// defaults-resolved form so a zero cannot stand for a large default.
func clampForFuzz(c *Config) {
	*c = c.withDefaults()
	c.Nodes = min(c.Nodes, 4)
	c.Replicas = min(c.Replicas, 4)
	c.Quorum = min(c.Quorum, 4)
	c.VNodes = min(c.VNodes, 4)
	c.Requests = min(c.Requests, 24)
	c.Warmup = min(c.Warmup, 24)
	c.QueueCap = min(c.QueueCap, 64)
	c.BatchMax = min(c.BatchMax, 8)
	c.Keyspace = min(c.Keyspace, 256)
	c.OpOverhead = min(c.OpOverhead, 400)
	c.LogCap = min(c.LogCap, 4096)
	c.CatchupBatch = min(c.CatchupBatch, 64)
	c.RetryMax = min(c.RetryMax, 8)
	if c.Rate > 0 {
		c.Rate = max(c.Rate, 20)
	}
	// Validate bounds the periodic ticks over the span that arrivals,
	// crashes and request deadlines set; the batch deadline, backoffs,
	// leases and RTT can stretch a run past it, so keep them short.
	for _, v := range []*uint64{&c.NetRTT, &c.BatchDeadline, &c.RetryBase, &c.RetryCap, &c.LeaseCycles} {
		*v = min(*v, 1<<20)
	}
	if p := c.Chaos; p != nil {
		p.DelayMult = min(p.DelayMult, 100)
		p.Partitions = p.Partitions[:min(len(p.Partitions), 4)]
		p.Grays = p.Grays[:min(len(p.Grays), 4)]
		for i := range p.Grays {
			p.Grays[i].Slow = min(p.Grays[i].Slow, 100)
		}
	}
}
