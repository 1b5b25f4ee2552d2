package cluster

import (
	"strings"
	"testing"

	"specpersist/internal/core"
	"specpersist/internal/service"
)

// TestSharedChecksRejectInBothLayers: each bad request knob is refused by
// the storage server and by the fleet alike, with the layer's prefix and
// a message naming the knob, since both check it in service.Serving.
func TestSharedChecksRejectInBothLayers(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*service.Serving)
		want string
	}{
		{"zero rate", func(s *service.Serving) { s.Rate = 0 }, "rate"},
		{"negative rate", func(s *service.Serving) { s.Rate = -3 }, "rate"},
		{"base variant", func(s *service.Serving) { s.Variant = core.VariantBase }, "durable commit"},
		{"log variant", func(s *service.Serving) { s.Variant = core.VariantLog }, "durable commit"},
		{"unknown structure", func(s *service.Serving) { s.Structure = "ZZ" }, "structure"},
		{"negative requests", func(s *service.Serving) { s.Requests = -1 }, "request count"},
		{"negative queue", func(s *service.Serving) { s.QueueCap = -1 }, "queue capacity"},
		{"negative batch", func(s *service.Serving) { s.BatchMax = -1 }, "batch size"},
		{"negative get frac", func(s *service.Serving) { s.GetFrac = -0.1 }, "get fraction"},
		{"big get frac", func(s *service.Serving) { s.GetFrac = 1.5 }, "get fraction"},
		{"negative keyspace", func(s *service.Serving) { s.Keyspace = -2 }, "keyspace"},
		{"negative warmup", func(s *service.Serving) { s.Warmup = -1 }, "warmup"},
		{"negative ssb", func(s *service.Serving) { s.SSBEntries = -1 }, "SSB size"},
		{"ssb on a fenced variant", func(s *service.Serving) { s.Variant, s.SSBEntries = core.VariantLogPSf, 64 }, "ssb_entries 64"},
		{"ssb on a fence-free variant", func(s *service.Serving) { s.Variant, s.SSBEntries = core.VariantLogP, 64 }, "ssb_entries 64"},
		{"negative log cap", func(s *service.Serving) { s.LogCap = -3 }, "log capacity"},
	} {
		svc := service.DefaultConfig()
		tc.mut(&svc.Serving)
		fleet := DefaultConfig()
		tc.mut(&fleet.Serving)
		for _, got := range []struct {
			layer string
			err   error
		}{{"service", svc.Validate()}, {"cluster", fleet.Validate()}} {
			if got.err == nil {
				t.Errorf("%s: %s accepted it", tc.name, got.layer)
			} else if msg := got.err.Error(); !strings.HasPrefix(msg, got.layer+": ") || !strings.Contains(msg, tc.want) {
				t.Errorf("%s: %s error %q lacks the layer prefix or does not mention %q", tc.name, got.layer, msg, tc.want)
			}
		}
	}
	for _, v := range []core.Variant{core.VariantLogP, core.VariantLogPSf} {
		svc, fleet := service.DefaultConfig(), DefaultConfig()
		svc.Variant, fleet.Variant = v, v
		if err := svc.Validate(); err != nil {
			t.Errorf("service rejected the default %s server: %v", v, err)
		}
		if err := fleet.Validate(); err != nil {
			t.Errorf("cluster rejected the default %s fleet: %v", v, err)
		}
	}
}
