package scenario

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// validSpec returns a minimal spec that passes validation; tests mutate it
// to probe individual failure modes.
func validSpec() Spec {
	return Spec{
		Name:    "probe",
		Seeds:   1,
		Measure: Measure{Kind: MeasureLatency},
		Sweeps: []Sweep{{
			Engines: []string{"flink"},
			Workers: []int{2},
			Query:   Query{Kind: "aggregation"},
			Load:    Load{Kind: LoadConstant, RateEvPerSec: 0.5e6},
		}},
	}
}

func TestSpecValidationFailures(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string // substring the error must carry
	}{
		{"missing name", func(s *Spec) { s.Name = "" }, "needs a name"},
		{"name with slash", func(s *Spec) { s.Name = "a/b" }, "whitespace or '/'"},
		{"zero seeds", func(s *Spec) { s.Seeds = 0 }, "seeds must be >= 1"},
		{"negative seeds", func(s *Spec) { s.Seeds = -2 }, "seeds must be >= 1"},
		{"no sweeps", func(s *Spec) { s.Sweeps = nil }, "at least one sweep"},
		{"bad engine name", func(s *Spec) { s.Sweeps[0].Engines = []string{"samza"} }, `unknown engine "samza"`},
		{"empty engines", func(s *Spec) { s.Sweeps[0].Engines = nil }, "engines must not be empty"},
		{"zero workers", func(s *Spec) { s.Sweeps[0].Workers = []int{0} }, "must be positive"},
		{"no workers", func(s *Spec) { s.Sweeps[0].Workers = nil }, "workers must not be empty"},
		{"bad order", func(s *Spec) { s.Sweeps[0].Order = "loads,first" }, "unknown order"},
		{"bad measure kind", func(s *Spec) { s.Measure.Kind = "vibes" }, "unknown measure kind"},
		{"bad series stat", func(s *Spec) {
			s.Measure = Measure{Kind: MeasureLatencySeries, SeriesStats: []string{"median"}}
		}, "unknown series stat"},
		{"stats on table measure", func(s *Spec) { s.Measure.SeriesStats = []string{"mean"} }, "series_stats only apply"},
		{"stats on pair measure", func(s *Spec) {
			s.Measure = Measure{Kind: MeasureLatencyPairSeries, SeriesStats: []string{"max"}}
		}, "series_stats do not apply"},
		{"bad aside", func(s *Spec) {
			s.Measure = Measure{Kind: MeasureSustainable, Aside: "flink-aside"}
			s.Sweeps[0].Load = Load{}
		}, "unknown aside"},
		{"aside without sustainable", func(s *Spec) { s.Measure.Aside = AsideStormNaiveJoin }, "requires"},
		{"bad query kind", func(s *Spec) { s.Sweeps[0].Query.Kind = "count" }, "unknown query kind"},
		{"bad strategy", func(s *Spec) { s.Sweeps[0].Query.Strategy = "cache-more" }, "unknown sliding strategy"},
		{"bad selectivity", func(s *Spec) {
			s.Sweeps[0].Query = Query{Kind: "join", Selectivity: 1.5}
		}, "selectivity"},
		{"zero slide", func(s *Spec) { s.Sweeps[0].Query.WindowSlide = Duration(-1) }, "window"},
		{"missing load", func(s *Spec) { s.Sweeps[0].Load = Load{} }, "needs a load schedule"},
		{"bad load kind", func(s *Spec) { s.Sweeps[0].Load.Kind = "sinusoid" }, "unknown load kind"},
		{"constant without rate", func(s *Spec) { s.Sweeps[0].Load = Load{Kind: LoadConstant} }, "rate_ev_per_sec"},
		{"table-rates without pcts", func(s *Spec) { s.Sweeps[0].Load = Load{Kind: LoadTableRates} }, "at least one pct"},
		{"table-rates without anchor", func(s *Spec) {
			s.Sweeps[0].Load = Load{Kind: LoadTableRates, Pcts: []int{100}}
			s.Sweeps[0].Workers = []int{3}
		}, "no published rate"},
		{"empty steps", func(s *Spec) { s.Sweeps[0].Load = Load{Kind: LoadSteps} }, "at least one step"},
		{"non-monotonic steps", func(s *Spec) {
			s.Sweeps[0].Load = Load{Kind: LoadSteps, Steps: []Step{
				{From: 0, RateEvPerSec: 1e6},
				{From: Duration(30e9), RateEvPerSec: 0.5e6},
				{From: Duration(10e9), RateEvPerSec: 1e6},
			}}
		}, "not strictly ordered"},
		{"fluctuation without rates", func(s *Spec) { s.Sweeps[0].Load = Load{Kind: LoadFluctuation} }, "fluctuation"},
		{"load on sustainable", func(s *Spec) { s.Measure.Kind = MeasureSustainable }, "searches for its own rate"},
		{"bad disorder prob", func(s *Spec) { s.Sweeps[0].Load.DisorderProb = 1.2 }, "disorder_prob"},
		{"disorder without max", func(s *Spec) { s.Sweeps[0].Load.DisorderProb = 0.3 }, "disorder_max"},
		{"bad key kind", func(s *Spec) { s.Sweeps[0].Load.Keys = &Keys{Kind: "pareto"} }, "unknown key distribution"},
		{"zipf without exponent", func(s *Spec) { s.Sweeps[0].Load.Keys = &Keys{Kind: "zipf", N: 100} }, "s > 1"},
		{"uniform without n", func(s *Spec) { s.Sweeps[0].Load.Keys = &Keys{Kind: "uniform"} }, "n > 0"},
		{"zipf past the key domain", func(s *Spec) {
			s.Sweeps[0].Load.Keys = &Keys{Kind: "zipf", N: 65_537, S: 1.2}
		}, "n <= 65536"},
		{"single key past the key domain", func(s *Spec) {
			s.Sweeps[0].Load.Keys = &Keys{Kind: "single", Key: 65_536}
		}, "[0, 65536)"},
		{"duplicate engine", func(s *Spec) { s.Sweeps[0].Engines = []string{"flink", "flink"} }, "duplicate grid point"},
		{"identical sweeps", func(s *Spec) { s.Sweeps = append(s.Sweeps, s.Sweeps[0]) }, "duplicate grid point"},
		{"metric key collision", func(s *Spec) {
			second := s.Sweeps[0]
			second.Prefix = "b"
			s.Sweeps[0].Prefix = "a"
			s.Sweeps = append(s.Sweeps, second)
		}, "share metric key"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if _, cerr := Compile(s); cerr == nil {
				t.Fatal("Compile accepted a spec Validate rejects")
			}
		})
	}
}

// TestSpecKeyDomainEdge pins the top of the key domain: n = 65,535 and
// key = 65,535 are within [0, tuple.KeyDomain), so they validate and
// compile into a generator config the generator accepts.
func TestSpecKeyDomainEdge(t *testing.T) {
	for _, k := range []Keys{
		{Kind: "normal", N: 65_535},
		{Kind: "uniform", N: 65_535},
		{Kind: "zipf", N: 65_535, S: 1.2},
		{Kind: "single", Key: 65_535},
	} {
		s := validSpec()
		s.Sweeps[0].Load.Keys = &k
		if err := s.Validate(); err != nil {
			t.Fatalf("%+v rejected: %v", k, err)
		}
		if _, err := Compile(s); err != nil {
			t.Fatalf("%+v does not compile: %v", k, err)
		}
	}
}

func TestBuiltinSpecsValidateAndCompile(t *testing.T) {
	for _, s := range Builtin() {
		if err := s.Validate(); err != nil {
			t.Fatalf("builtin %s invalid: %v", s.Name, err)
		}
		if _, err := Compile(s); err != nil {
			t.Fatalf("builtin %s does not compile: %v", s.Name, err)
		}
	}
}

// TestShippedSpecsValidateAndCompile loads and compiles every spec in
// examples/scenarios, as `sdpsbench -scenario-validate` does, so a shipped
// spec that stops parsing, validating or compiling fails the test suite.
func TestShippedSpecsValidateAndCompile(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no shipped specs found")
	}
	for _, p := range paths {
		s, err := LoadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Compile(s); err != nil {
			t.Fatalf("%s does not compile: %v", p, err)
		}
	}
}

// TestSpecJSONRoundTripStable pins the wire stability of Spec: marshal →
// unmarshal → marshal must be byte-identical, for a kitchen-sink spec and
// for every builtin.  This is what makes controller manifests and artifact
// provenance reproducible across processes.
func TestSpecJSONRoundTripStable(t *testing.T) {
	kitchen := Spec{
		Name:        "kitchen-sink",
		Title:       "everything at once",
		Description: "exercises every field",
		Heading:     "kitchen sink",
		Seeds:       3,
		Measure:     Measure{Kind: MeasureLatencySeries, SeriesStats: []string{"max", "mean"}},
		Sweeps: []Sweep{{
			Prefix:  "a",
			Engines: []string{"storm", "flink"},
			Workers: []int{2, 4},
			Order:   orderWEL,
			Query:   Query{Kind: "join", WindowSize: Duration(60e9), WindowSlide: Duration(30e9), Selectivity: 0.1},
			Load: Load{
				Kind: LoadSteps,
				Steps: []Step{
					{From: 0, RateEvPerSec: 0.8e6},
					{From: Duration(25e9), RateEvPerSec: 0.2e6},
				},
				Keys:         &Keys{Kind: "zipf", N: 1000, S: 1.2},
				DisorderProb: 0.25,
				DisorderMax:  Duration(2e9),
			},
			Label:          "{engine} {workers}w",
			MetricKey:      "{prefix}/{engine}/{workers}",
			WatermarkSlack: Duration(500e6),
		}},
	}
	specs := append(Builtin(), kitchen)
	for _, s := range specs {
		first, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%s: marshal: %v", s.Name, err)
		}
		back, err := Parse(first)
		if err != nil {
			t.Fatalf("%s: re-parse of own encoding failed: %v", s.Name, err)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", s.Name, err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: round-trip drifted:\n first %s\nsecond %s", s.Name, first, second)
		}
	}
}

func TestParseRejectsUnknownFieldsAndTrailingData(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"x","seeds":1,"measure":{"kind":"latency"},"sweeps":[],"typo_field":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Parse([]byte(`{"name":"x"} {"name":"y"}`)); err == nil {
		t.Fatal("trailing document accepted")
	}
}

func TestDurationJSONForms(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"1m30s"`), &d); err != nil || d.D().Seconds() != 90 {
		t.Fatalf("string duration: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`2000000000`), &d); err != nil || d.D().Seconds() != 2 {
		t.Fatalf("numeric duration: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`"fortnight"`), &d); err == nil {
		t.Fatal("bad duration accepted")
	}
	b, err := json.Marshal(Duration(8e9))
	if err != nil || string(b) != `"8s"` {
		t.Fatalf("marshal: %s %v", b, err)
	}
}
