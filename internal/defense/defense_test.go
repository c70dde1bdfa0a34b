package defense

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/nic"
	"repro/internal/perfsim"
	"repro/internal/testbed"
)

// TestRegistryRoundTrip: every registered defense must be recoverable by
// its own name, as the same value — the property that lets reports,
// sweep-cell labels, and CLI arguments all use names as identities.
func TestRegistryRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range All() {
		if seen[d.Name()] {
			t.Fatalf("duplicate registry name %q", d.Name())
		}
		seen[d.Name()] = true
		got, ok := ByName(d.Name())
		if !ok {
			t.Fatalf("ByName(%q) not found", d.Name())
		}
		if !reflect.DeepEqual(got, d) {
			t.Errorf("ByName(%q) = %#v, want %#v", d.Name(), got, d)
		}
	}
	if _, ok := ByName("definitely-not-registered"); ok {
		t.Error("ByName must reject unknown names")
	}
	if got, want := len(Names()), len(All()); got != want {
		t.Errorf("Names() has %d entries, registry %d", got, want)
	}
}

// TestApplySemantics pins what each defense does to the machine options.
func TestApplySemantics(t *testing.T) {
	base := func() testbed.Options { return testbed.DefaultOptions(1) }

	o := base()
	NoDefense{}.Apply(&o)
	if !reflect.DeepEqual(o, base()) {
		t.Error("NoDefense must not change options")
	}

	o = base()
	DisableDDIO{}.Apply(&o)
	if o.Cache.DDIO {
		t.Error("DisableDDIO left DDIO on")
	}

	o = base()
	RingRandomization{}.Apply(&o)
	if o.NIC.Randomize != nic.RandomizeFull {
		t.Error("full randomization not installed")
	}
	o = base()
	RingRandomization{Interval: 10_000}.Apply(&o)
	if o.NIC.Randomize != nic.RandomizePeriodic || o.NIC.RandomizeInterval != 10_000 {
		t.Error("periodic randomization not installed")
	}

	o = base()
	TimerCoarsening{Jitter: 99}.Apply(&o)
	if o.TimerNoise != 99 {
		t.Error("timer coarsening not installed")
	}

	o = base()
	AdaptivePartitioning{}.Apply(&o)
	if o.Cache.Partition == nil || *o.Cache.Partition != *cache.DefaultPartitionConfig() {
		t.Error("partition defense not installed with default config")
	}
	// Apply must copy the config, never alias the default or the
	// defense's own pointer.
	shared := cache.DefaultPartitionConfig()
	d := AdaptivePartitioning{Config: shared}
	o = base()
	d.Apply(&o)
	o.Cache.Partition.Period = 1
	if shared.Period == 1 {
		t.Error("Apply aliased the caller's partition config")
	}

	o = base()
	NewStack(DisableDDIO{}, TimerCoarsening{Jitter: 31}).Apply(&o)
	if o.Cache.DDIO || o.TimerNoise != 31 {
		t.Error("stack did not apply every layer")
	}
}

// TestRegistryMachinesBuild: every registered defense must produce a
// buildable demo-scale machine.
func TestRegistryMachinesBuild(t *testing.T) {
	for _, d := range All() {
		opts := testbed.DefaultOptions(1)
		opts.Cache = cache.ScaledConfig(2, 2048, 8)
		opts.NIC.RingSize = 64
		d.Apply(&opts)
		if err := opts.Cache.Validate(); err != nil {
			t.Errorf("%s: invalid cache config: %v", d.Name(), err)
		}
		if _, err := testbed.New(opts); err != nil {
			t.Errorf("%s: testbed build failed: %v", d.Name(), err)
		}
	}
}

// TestNamesAreSlugSafe: registry names feed metric-name slugs and cell
// keys; keep them lowercase with no spaces or commas.
func TestNamesAreSlugSafe(t *testing.T) {
	for _, n := range Names() {
		if n == "" || n != strings.ToLower(n) || strings.ContainsAny(n, " ,=") {
			t.Errorf("registry name %q is not slug/key safe", n)
		}
	}
}

// TestPerfSchemes: each defense, alone or stacked, maps onto the
// machine configuration the paper prices it as — the Effects value of
// the matching Fig 14-16 scheme.
func TestPerfSchemes(t *testing.T) {
	adaptive := perfsim.Effects{Partition: cache.DefaultPartitionConfig()}
	fullRandom := perfsim.Effects{Randomize: nic.RandomizeFull}
	cases := []struct {
		d    Defense
		want perfsim.Effects
	}{
		{NoDefense{}, perfsim.Effects{}},
		{DisableDDIO{}, perfsim.Effects{DDIOOff: true}},
		{RingRandomization{}, fullRandom},
		{RingRandomization{Interval: 1_000}, perfsim.Effects{Randomize: nic.RandomizePeriodic, RandomizeInterval: 1_000}},
		{RingRandomization{Interval: 10_000}, perfsim.Effects{Randomize: nic.RandomizePeriodic, RandomizeInterval: 10_000}},
		{TimerCoarsening{Jitter: 64}, perfsim.Effects{}},
		{AdaptivePartitioning{}, adaptive},
		{NewStack(TimerCoarsening{Jitter: 64}, AdaptivePartitioning{}), adaptive},
		{NewStack(AdaptivePartitioning{}, RingRandomization{}), adaptive.Compose(fullRandom)},
	}
	for _, c := range cases {
		if got, want := c.d.PerfEffects().Fingerprint(), c.want.Fingerprint(); got != want {
			t.Errorf("%s: PerfEffects = %q, want %q", c.d.Name(), got, want)
		}
	}
}

// TestPerfEffects pins the cost-axis mapping of every registered
// defense, the exact-interval cost model, and the stack rule that every
// costly layer survives composition.
func TestPerfEffects(t *testing.T) {
	want := map[string]string{
		"none":                               "ddio_off=false|partition=none|randomize=none/0",
		"no-ddio":                            "ddio_off=true|partition=none|randomize=none/0",
		"ring-full-random":                   "ddio_off=false|partition=none|randomize=full-randomization/0",
		"ring-partial-1k":                    "ddio_off=false|partition=none|randomize=periodic-randomization/1000",
		"ring-partial-10k":                   "ddio_off=false|partition=none|randomize=periodic-randomization/10000",
		"timer-coarse-64":                    "ddio_off=false|partition=none|randomize=none/0",
		"adaptive-partition":                 "ddio_off=false|partition={Period:10000 THigh:5000 TLow:2000 MinIOWays:1 MaxIOWays:3}|randomize=none/0",
		"adaptive-partition+timer-coarse-64": "ddio_off=false|partition={Period:10000 THigh:5000 TLow:2000 MinIOWays:1 MaxIOWays:3}|randomize=none/0",
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d defenses, want %d", len(All()), len(want))
	}
	for _, d := range All() {
		if got := d.PerfEffects().Fingerprint(); got != want[d.Name()] {
			t.Errorf("%s: PerfEffects = %q, want %q", d.Name(), got, want[d.Name()])
		}
	}
	if e := (RingRandomization{Interval: 2_000}).PerfEffects(); e.OverheadPerPacket() != 256 {
		t.Errorf("2k interval overhead = %d, want the exact 256, not a bucket", e.OverheadPerPacket())
	}
	s := NewStack(AdaptivePartitioning{}, RingRandomization{Interval: 1_000}, DisableDDIO{})
	e := s.PerfEffects()
	if e.Partition == nil || !e.DDIOOff || e.Randomize != nic.RandomizePeriodic || e.RandomizeInterval != 1_000 {
		t.Errorf("stack effects dropped a layer: %+v", e)
	}
}

// TestStackCostsComposeInPerfsim is the acceptance property: a
// partition+randomization stack, run through the performance model via
// its composed effects, costs strictly more than either layer alone.
func TestStackCostsComposeInPerfsim(t *testing.T) {
	cfg := perfsim.DefaultNginxConfig()
	cfg.Requests = 3_000
	cfg.TargetRate = 140_000
	p99 := func(d Defense) float64 {
		m, err := perfsim.RunNginx(d.PerfEffects(), 20<<20, 7, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m.LatencyPercentile(99)
	}
	part := p99(AdaptivePartitioning{})
	rand := p99(RingRandomization{})
	both := p99(NewStack(AdaptivePartitioning{}, RingRandomization{}))
	if !(both > part && both > rand) {
		t.Fatalf("stack p99 %.0f must exceed partition %.0f and randomization %.0f alone", both, part, rand)
	}
}

// TestValidation: the construction-time parameter checks the search
// mutator relies on — nonsense candidates must fail loudly.
func TestValidation(t *testing.T) {
	badPart := func(mut func(*cache.PartitionConfig)) *cache.PartitionConfig {
		c := *cache.DefaultPartitionConfig()
		mut(&c)
		return &c
	}
	cases := []struct {
		name string
		d    Defense
		ok   bool
	}{
		{"none", NoDefense{}, true},
		{"no-ddio", DisableDDIO{}, true},
		{"ring-full", RingRandomization{}, true},
		{"ring-1k", RingRandomization{Interval: 1_000}, true},
		{"ring-negative", RingRandomization{Interval: -5}, false},
		{"timer-64", TimerCoarsening{Jitter: 64}, true},
		{"timer-zero", TimerCoarsening{}, false},
		{"partition-default", AdaptivePartitioning{}, true},
		{"partition-zero-period", AdaptivePartitioning{Config: badPart(func(c *cache.PartitionConfig) { c.Period = 0 })}, false},
		{"partition-zero-ways", AdaptivePartitioning{Config: badPart(func(c *cache.PartitionConfig) { c.MinIOWays = 0; c.MaxIOWays = 0 })}, false},
		{"partition-inverted-ways", AdaptivePartitioning{Config: badPart(func(c *cache.PartitionConfig) { c.MinIOWays = 3; c.MaxIOWays = 1 })}, false},
		{"partition-inverted-thresholds", AdaptivePartitioning{Config: badPart(func(c *cache.PartitionConfig) { c.TLow = 9_000 })}, false},
		{"stack-valid", NewStack(AdaptivePartitioning{}, TimerCoarsening{Jitter: 64}), true},
		{"stack-bad-layer", NewStack(AdaptivePartitioning{}, RingRandomization{Interval: -1}), false},
	}
	for _, c := range cases {
		if err := Validate(c.d); (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%t", c.name, err, c.ok)
		}
	}
	// Constructors surface the same checks.
	if _, err := NewRingRandomization(-1); err == nil {
		t.Error("NewRingRandomization(-1) must fail")
	}
	if _, err := NewTimerCoarsening(0); err == nil {
		t.Error("NewTimerCoarsening(0) must fail")
	}
	if _, err := NewAdaptivePartitioning(badPart(func(c *cache.PartitionConfig) { c.MinIOWays = 0 })); err == nil {
		t.Error("NewAdaptivePartitioning with zero ways must fail")
	}
	if d, err := NewRingRandomization(500); err != nil || d.Interval != 500 {
		t.Errorf("NewRingRandomization(500) = %+v, %v", d, err)
	}
}
