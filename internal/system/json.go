// Canonical, schema-versioned JSON encoding of Config.
//
// The canonical form is the service layer's wire format and the cache /
// singleflight key: one stable field order (struct declaration order),
// every default made explicit (the config is Normalized before
// encoding), enums spelled as names, and no insignificant whitespace —
// so two Configs that simulate identically encode identically, byte for
// byte. A golden test pins the encoding; ConfigSchemaVersion gates
// breaking layout changes the same way the -report document's schema
// field does.

package system

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"nocstar/internal/noc"
	"nocstar/internal/ptw"
	"nocstar/internal/workload"
)

// ConfigSchemaVersion identifies the canonical Config JSON layout. Bump
// it on any breaking change to the document structure; decoding rejects
// documents stamped with a newer version than it understands.
//
// v2 added warmup_instr.
// v3 added topology, placement, placement_seed.
// v4 removed topology, placement, placement_seed and qos_max_ctx_ways:
// every organization routes the one mesh over address-interleaved
// slices, and a document naming a removed field is rejected as unknown.
// v5 removed warmup_instr and banks: every run is cold, and the
// monolithic bank count follows from the core count.
// v6 removed l2_entries_per_core and ptw's pwc_entries, overhead and
// walkers: the L2 size follows from the organization, and every walker
// has the paper's geometry.
const ConfigSchemaVersion = 6

// orgTokens are the stable wire names of the organizations.
var orgTokens = map[Org]string{
	Private:         "private",
	MonolithicMesh:  "mono-mesh",
	MonolithicSMART: "mono-smart",
	MonolithicFixed: "mono-fixed",
	DistributedMesh: "distributed",
	Nocstar:         "nocstar",
	NocstarIdeal:    "nocstar-ideal",
	IdealShared:     "ideal",
}

// OrgTokens returns the wire names of every organization, sorted — the
// vocabulary POST /v1/runs accepts in the "org" field.
func OrgTokens() []string {
	out := make([]string, 0, len(orgTokens))
	for _, tok := range orgTokens {
		out = append(out, tok)
	}
	sort.Strings(out)
	return out
}

// ParseOrg resolves a wire name back to an organization.
func ParseOrg(tok string) (Org, bool) {
	for o, t := range orgTokens {
		if t == tok {
			return o, true
		}
	}
	return 0, false
}

const (
	acquireOneWayToken    = "one-way"
	acquireRoundTripToken = "round-trip"
	policyRequestToken    = "request"
	policyRemoteToken     = "remote"
	ptwVariableToken      = "variable"
	ptwFixedToken         = "fixed"
)

// The wire mirror of Config. Field declaration order is the canonical
// field order — do not reorder without bumping ConfigSchemaVersion.
type configJSON struct {
	Schema                int        `json:"schema"`
	Org                   string     `json:"org"`
	Cores                 int        `json:"cores"`
	SMT                   int        `json:"smt"`
	L1Scale               float64    `json:"l1_scale"`
	FixedAccessLatency    int        `json:"fixed_access_latency"`
	HPCmax                int        `json:"hpc_max"`
	Acquire               string     `json:"acquire"`
	PTW                   ptwJSON    `json:"ptw"`
	Policy                string     `json:"policy"`
	PrefetchDegree        int        `json:"prefetch_degree"`
	InvLeaders            int        `json:"inv_leaders"`
	THP                   bool       `json:"thp"`
	NoSpeculativeResponse bool       `json:"no_speculative_response"`
	Apps                  []appJSON  `json:"apps"`
	InstrPerThread        uint64     `json:"instr_per_thread"`
	ShootdownInterval     uint64     `json:"shootdown_interval"`
	Storm                 *stormJSON `json:"storm,omitempty"`
	Seed                  int64      `json:"seed"`
}

type ptwJSON struct {
	Mode         string `json:"mode"`
	FixedLatency int    `json:"fixed_latency"`
}

// appJSON carries either a full generative Spec or, on input only, the
// name of a suite workload as shorthand. HammerSlice is a pointer so an
// omitted field defaults to HammerNone rather than slice 0.
type appJSON struct {
	Workload    string    `json:"workload,omitempty"`
	Spec        *specJSON `json:"spec,omitempty"`
	Threads     int       `json:"threads"`
	HammerSlice *int      `json:"hammer_slice,omitempty"`
}

// specJSON mirrors workload.Spec field-for-field (conversion below
// depends on identical layout).
type specJSON struct {
	Name           string  `json:"name"`
	FootprintPages uint64  `json:"footprint_pages"`
	SharedFrac     float64 `json:"shared_frac"`
	HotFrac        float64 `json:"hot_frac"`
	HotProb        float64 `json:"hot_prob"`
	ZipfTheta      float64 `json:"zipf_theta"`
	RepeatProb     float64 `json:"repeat_prob"`
	MemRefPerInstr float64 `json:"mem_ref_per_instr"`
	BaseCPI        float64 `json:"base_cpi"`
	SuperpageFrac  float64 `json:"superpage_frac"`
}

type stormJSON struct {
	ContextSwitchInterval uint64 `json:"context_switch_interval"`
	PromoteDemoteInterval uint64 `json:"promote_demote_interval"`
	Pages                 uint64 `json:"pages"`
}

// MarshalCanonical returns the canonical JSON encoding of c. The config
// is Normalized first, so every default is explicit and two configs
// that would simulate identically produce identical bytes — the
// property the runner's singleflight key and the service's result cache
// rely on. Configs that carry live state (attached Checker, injected
// Streams) have no canonical encoding and return an error.
func (c Config) MarshalCanonical() ([]byte, error) {
	if c.Check != nil {
		return nil, fmt.Errorf("system: config with an attached Checker has no canonical encoding")
	}
	for i, a := range c.Apps {
		if a.Streams != nil {
			return nil, fmt.Errorf("system: app %d carries live address streams; no canonical encoding", i)
		}
	}
	n, err := c.Normalized()
	if err != nil {
		return nil, err
	}
	mode := ptwVariableToken
	if n.PTW.Mode == ptw.Fixed {
		mode = ptwFixedToken
	}
	acquire := acquireOneWayToken
	if n.Acquire == noc.RoundTripAcquire {
		acquire = acquireRoundTripToken
	}
	policy := policyRequestToken
	if n.Policy == WalkAtRemote {
		policy = policyRemoteToken
	}
	doc := configJSON{
		Schema:             ConfigSchemaVersion,
		Org:                orgTokens[n.Org],
		Cores:              n.Cores,
		SMT:                n.SMT,
		L1Scale:            n.L1Scale,
		FixedAccessLatency: n.FixedAccessLatency,
		HPCmax:             n.HPCmax,
		Acquire:            acquire,
		PTW: ptwJSON{
			Mode:         mode,
			FixedLatency: n.PTW.FixedLatency,
		},
		Policy:                policy,
		PrefetchDegree:        n.PrefetchDegree,
		InvLeaders:            n.InvLeaders,
		THP:                   n.THP,
		NoSpeculativeResponse: n.NoSpeculativeResponse,
		InstrPerThread:        n.InstrPerThread,
		ShootdownInterval:     n.ShootdownInterval,
		Seed:                  n.Seed,
	}
	for _, a := range n.Apps {
		spec := specJSON(a.Spec)
		hammer := a.HammerSlice
		doc.Apps = append(doc.Apps, appJSON{
			Spec:        &spec,
			Threads:     a.Threads,
			HammerSlice: &hammer,
		})
	}
	if n.Storm != nil {
		storm := stormJSON(*n.Storm)
		doc.Storm = &storm
	}
	return json.Marshal(doc)
}

// CanonicalHash returns the SHA-256 of the canonical encoding, hex
// encoded — the key the service's result cache and job singleflight use.
func (c Config) CanonicalHash() (string, error) {
	b, err := c.MarshalCanonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// UnmarshalConfig decodes a JSON config document — canonical output or
// hand-written input. Unknown fields are rejected (a typo'd knob must
// not silently simulate the default), omitted fields take the same
// defaults Normalized fills, enums are spelled as names, and an app may
// name a suite workload ("workload": "canneal") instead of carrying a
// full generative spec. The decoded Config is not yet validated; call
// Validate (or let Run do it) for typed field errors.
func UnmarshalConfig(data []byte) (Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc configJSON
	if err := dec.Decode(&doc); err != nil {
		return Config{}, fmt.Errorf("system: decoding config: %w", err)
	}
	if dec.More() {
		return Config{}, fmt.Errorf("system: trailing data after config document")
	}
	if doc.Schema > ConfigSchemaVersion {
		return Config{}, fmt.Errorf("system: config schema %d is newer than supported %d",
			doc.Schema, ConfigSchemaVersion)
	}
	cfg := Config{
		Cores:                 doc.Cores,
		SMT:                   doc.SMT,
		L1Scale:               doc.L1Scale,
		FixedAccessLatency:    doc.FixedAccessLatency,
		HPCmax:                doc.HPCmax,
		PrefetchDegree:        doc.PrefetchDegree,
		InvLeaders:            doc.InvLeaders,
		THP:                   doc.THP,
		NoSpeculativeResponse: doc.NoSpeculativeResponse,
		InstrPerThread:        doc.InstrPerThread,
		ShootdownInterval:     doc.ShootdownInterval,
		Seed:                  doc.Seed,
	}
	if doc.Org != "" {
		org, ok := ParseOrg(doc.Org)
		if !ok {
			return Config{}, fmt.Errorf("system: unknown org %q (have %s)",
				doc.Org, strings.Join(OrgTokens(), ", "))
		}
		cfg.Org = org
	}
	switch doc.Acquire {
	case "", acquireOneWayToken:
	case acquireRoundTripToken:
		cfg.Acquire = noc.RoundTripAcquire
	default:
		return Config{}, fmt.Errorf("system: unknown acquire mode %q (have %s, %s)",
			doc.Acquire, acquireOneWayToken, acquireRoundTripToken)
	}
	switch doc.Policy {
	case "", policyRequestToken:
	case policyRemoteToken:
		cfg.Policy = WalkAtRemote
	default:
		return Config{}, fmt.Errorf("system: unknown walk policy %q (have %s, %s)",
			doc.Policy, policyRequestToken, policyRemoteToken)
	}
	cfg.PTW = ptw.Config{FixedLatency: doc.PTW.FixedLatency}
	switch doc.PTW.Mode {
	case "", ptwVariableToken:
	case ptwFixedToken:
		cfg.PTW.Mode = ptw.Fixed
	default:
		return Config{}, fmt.Errorf("system: unknown PTW mode %q (have %s, %s)",
			doc.PTW.Mode, ptwVariableToken, ptwFixedToken)
	}
	for i, a := range doc.Apps {
		app := App{Threads: a.Threads, HammerSlice: HammerNone}
		if a.HammerSlice != nil {
			app.HammerSlice = *a.HammerSlice
		}
		switch {
		case a.Workload != "" && a.Spec != nil:
			return Config{}, fmt.Errorf("system: app %d names both a workload and a spec; pick one", i)
		case a.Workload != "":
			spec, ok := workload.ByName(a.Workload)
			if !ok {
				return Config{}, fmt.Errorf("system: app %d: unknown workload %q (have %s)",
					i, a.Workload, strings.Join(workload.Names(), ", "))
			}
			app.Spec = spec
		case a.Spec != nil:
			app.Spec = workload.Spec(*a.Spec)
		default:
			return Config{}, fmt.Errorf("system: app %d needs a workload name or a spec", i)
		}
		cfg.Apps = append(cfg.Apps, app)
	}
	if doc.Storm != nil {
		storm := StormConfig(*doc.Storm)
		cfg.Storm = &storm
	}
	return cfg, nil
}
