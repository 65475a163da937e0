package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"batsched/internal/core"
	"batsched/internal/mc"
	"batsched/internal/mcarlo"
	"batsched/internal/sched"
	"batsched/internal/sweep"
)

// Builder turns a solver's raw JSON parameters into a runnable sweep case.
// New schemes plug into the whole system — scenario JSON, the sweep runner,
// the evaluation service, the HTTP API — by registering one Builder.
type Builder struct {
	// Name is the canonical registry name.
	Name string
	// Aliases are accepted alternative spellings ("seq", "rr", ...).
	Aliases []string
	// Doc is a one-line description served by /v1/policies.
	Doc string
	// MaxBatteries caps the bank size the solver can handle (0 = no cap).
	MaxBatteries int
	// MaxDistinctBatteries caps the number of distinct battery types per
	// bank (0 = no cap). The optimal search uses it: past 8 batteries only
	// symmetry between identical batteries keeps the search tractable.
	MaxDistinctBatteries int
	// SingleBattery marks solvers that need exactly one battery.
	SingleBattery bool
	// Build constructs the sweep case; params is nil for defaults.
	Build func(params json.RawMessage) (sweep.PolicyCase, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]*Builder{}
	regOrder []string
)

// Register adds a solver builder under its name and aliases. It panics on a
// duplicate name, which would silently shadow an existing scheme.
func Register(b Builder) {
	regMu.Lock()
	defer regMu.Unlock()
	for _, name := range append([]string{b.Name}, b.Aliases...) {
		key := strings.ToLower(name)
		if _, dup := registry[key]; dup {
			panic(fmt.Sprintf("spec: solver %q registered twice", name))
		}
		copy := b
		registry[key] = &copy
	}
	regOrder = append(regOrder, b.Name)
}

// Lookup resolves a solver name or alias (case-insensitive).
func Lookup(name string) (Builder, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := registry[strings.ToLower(name)]
	if !ok {
		return Builder{}, false
	}
	return *b, true
}

// Builders returns the registered solvers in registration order.
func Builders() []Builder {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Builder, 0, len(regOrder))
	for _, name := range regOrder {
		out = append(out, *registry[strings.ToLower(name)])
	}
	return out
}

// SolverNames returns the canonical registered solver names, sorted.
func SolverNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := append([]string(nil), regOrder...)
	sort.Strings(out)
	return out
}

// BuildSolver resolves the solver name through the registry and builds its
// sweep case.
func BuildSolver(s Solver) (sweep.PolicyCase, error) {
	_, pc, err := buildSolver(s)
	return pc, err
}

// CanonicalSolver resolves a solver reference to its registry-canonical
// identity: the canonical name (aliases collapse — "rr" and "roundrobin"
// are the same scheme) and compacted parameters (empty objects collapse to
// none). Content digests key on this identity so two spellings of the same
// solver dedup to one stored result.
func CanonicalSolver(s Solver) (Solver, error) {
	b, ok := Lookup(s.Name)
	if !ok {
		return Solver{}, fmt.Errorf("%w %q (known: %s)",
			ErrUnknownSolver, s.Name, strings.Join(SolverNames(), ", "))
	}
	out := Solver{Name: b.Name}
	if len(s.Params) > 0 {
		var buf bytes.Buffer
		if err := json.Compact(&buf, s.Params); err != nil {
			return Solver{}, fmt.Errorf("%w: %s: %v", ErrSolverParams, b.Name, err)
		}
		if p := buf.String(); p != "{}" && p != "null" {
			out.Params = append(json.RawMessage(nil), buf.Bytes()...)
		}
	}
	return out, nil
}

func buildSolver(s Solver) (Builder, sweep.PolicyCase, error) {
	b, ok := Lookup(s.Name)
	if !ok {
		return Builder{}, sweep.PolicyCase{}, fmt.Errorf("%w %q (known: %s)",
			ErrUnknownSolver, s.Name, strings.Join(SolverNames(), ", "))
	}
	pc, err := b.Build(s.Params)
	if err != nil {
		return b, pc, fmt.Errorf("%s: %w", b.Name, err)
	}
	return b, pc, nil
}

// decodeParams decodes a solver parameter object into v, rejecting unknown
// fields. A nil/empty raw leaves v at its defaults.
func decodeParams(raw json.RawMessage, v any) error {
	if len(raw) == 0 {
		return nil
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrSolverParams, err)
	}
	return nil
}

// noParams errors when a parameterless solver is given parameters.
func noParams(raw json.RawMessage) error {
	if len(raw) != 0 && string(raw) != "{}" && string(raw) != "null" {
		return fmt.Errorf("%w: solver takes no parameters (got %s)", ErrSolverParams, raw)
	}
	return nil
}

// LookaheadParams parameterise the model-predictive policy.
type LookaheadParams struct {
	// Horizon is the rollout horizon in minutes (required, > 0).
	Horizon float64 `json:"horizon"`
}

// OptimalParams parameterise the direct optimal search.
type OptimalParams struct {
	// Parallel spreads the branch exploration over a worker pool.
	Parallel bool `json:"parallel,omitempty"`
	// Workers sizes the pool, at most sched.MaxWorkers; 1 is the serial
	// search, and 0 with Parallel is the number of CPUs.
	Workers int `json:"workers,omitempty"`
}

// OptimalTAParams parameterise the priced-timed-automata checker.
type OptimalTAParams struct {
	// Budget bounds the states touched (0 = the checker's default).
	Budget int `json:"budget,omitempty"`
}

// MonteCarloParams parameterise the Monte-Carlo lifetime estimator. The
// reported lifetime is the sample mean; Decisions is the sample count.
type MonteCarloParams struct {
	// Samples is the number of simulated random loads (default 100).
	Samples int `json:"samples,omitempty"`
	// Seed makes the run deterministic (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Policy names the scheduling scheme driving each sample (a registry
	// name; default "bestof"). It must be a deterministic policy.
	Policy string `json:"policy,omitempty"`
	// Generator picks the load distribution: "intermittent" (default) or
	// "markov".
	Generator string `json:"generator,omitempty"`
	// Idle is the idle gap between jobs in minutes (default 1).
	Idle float64 `json:"idle,omitempty"`
	// PHigh is the per-job high-current probability (default 0.5).
	PHigh float64 `json:"p_high,omitempty"`
	// PStay is the markov burst persistence (default 0.75).
	PStay float64 `json:"p_stay,omitempty"`
	// Horizon is the generated-load horizon in minutes (default: the
	// scenario load's duration).
	Horizon float64 `json:"horizon,omitempty"`
}

// policyCase wraps a deterministic policy builder.
func policyCase(p sched.Policy) sweep.PolicyCase {
	return sweep.PolicyCase{Name: p.Name(), Policy: p}
}

func init() {
	Register(Builder{
		Name: "sequential", Aliases: []string{"seq"},
		Doc: "drain the batteries one after the other (the worst schedule)",
		Build: func(raw json.RawMessage) (sweep.PolicyCase, error) {
			if err := noParams(raw); err != nil {
				return sweep.PolicyCase{}, err
			}
			return policyCase(sched.Sequential()), nil
		},
	})
	Register(Builder{
		Name: "roundrobin", Aliases: []string{"rr", "round robin"},
		Doc: "assign job k to battery k mod B in a fixed rotation",
		Build: func(raw json.RawMessage) (sweep.PolicyCase, error) {
			if err := noParams(raw); err != nil {
				return sweep.PolicyCase{}, err
			}
			return policyCase(sched.RoundRobin()), nil
		},
	})
	Register(Builder{
		Name: "bestof", Aliases: []string{"best", "bestoftwo", "best-of-two"},
		Doc: "pick the battery with the most available charge at each job start",
		Build: func(raw json.RawMessage) (sweep.PolicyCase, error) {
			if err := noParams(raw); err != nil {
				return sweep.PolicyCase{}, err
			}
			return policyCase(sched.BestAvailable()), nil
		},
	})
	Register(Builder{
		Name: "greedy-soc", Aliases: []string{"greedysoc"},
		Doc: "online greedy state-of-charge policy (same choice rule as bestof, session-capable)",
		Build: func(raw json.RawMessage) (sweep.PolicyCase, error) {
			if err := noParams(raw); err != nil {
				return sweep.PolicyCase{}, err
			}
			return policyCase(sched.GreedySOC()), nil
		},
	})
	Register(Builder{
		Name: "efq",
		Doc:  "online energy-based fair queuing: serve from the battery with the least energy-weighted virtual time",
		Build: func(raw json.RawMessage) (sweep.PolicyCase, error) {
			if err := noParams(raw); err != nil {
				return sweep.PolicyCase{}, err
			}
			return policyCase(sched.EFQ()), nil
		},
	})
	Register(Builder{
		Name: "lookahead",
		Doc:  "online model-predictive policy; params: {\"horizon\": minutes}",
		Build: func(raw json.RawMessage) (sweep.PolicyCase, error) {
			var p LookaheadParams
			if err := decodeParams(raw, &p); err != nil {
				return sweep.PolicyCase{}, err
			}
			if !(p.Horizon > 0) {
				return sweep.PolicyCase{}, fmt.Errorf(
					"%w: lookahead horizon must be positive (got %v)", ErrSolverParams, p.Horizon)
			}
			return policyCase(sched.Lookahead(p.Horizon)), nil
		},
	})
	Register(Builder{
		Name: "optimal", Aliases: []string{"opt"},
		Doc:                  "clairvoyant optimum by direct search; params: {\"parallel\": bool, \"workers\": n}",
		MaxBatteries:         sched.MaxOptimalBatteries,
		MaxDistinctBatteries: sched.MaxDistinctOptimalBatteries,
		Build: func(raw json.RawMessage) (sweep.PolicyCase, error) {
			var p OptimalParams
			if err := decodeParams(raw, &p); err != nil {
				return sweep.PolicyCase{}, err
			}
			if p.Workers < 0 || p.Workers > sched.MaxWorkers {
				return sweep.PolicyCase{}, fmt.Errorf(
					"%w: optimal workers must be in [0, %d] (got %d)", ErrSolverParams, sched.MaxWorkers, p.Workers)
			}
			// A workers count above one runs the parallel search on its own;
			// parallel with no count means every CPU.
			pc := sweep.OptimalCase()
			pc.OptimalWorkers = p.Workers
			if p.Parallel && p.Workers == 0 {
				pc.OptimalWorkers = runtime.NumCPU()
			}
			return pc, nil
		},
	})
	Register(Builder{
		Name: "optimal-ta",
		Doc:  "clairvoyant optimum via priced timed automata (the paper's method); params: {\"budget\": states}",
		Build: func(raw json.RawMessage) (sweep.PolicyCase, error) {
			var p OptimalTAParams
			if err := decodeParams(raw, &p); err != nil {
				return sweep.PolicyCase{}, err
			}
			if p.Budget < 0 {
				return sweep.PolicyCase{}, fmt.Errorf(
					"%w: optimal-ta budget must be non-negative (got %d)", ErrSolverParams, p.Budget)
			}
			return sweep.PolicyCase{
				Name: "optimal-ta",
				Run: func(c *core.Compiled) (float64, int, error) {
					sol, err := c.OptimalLifetimeTA(mc.Options{MaxStates: p.Budget})
					if err != nil {
						return 0, 0, err
					}
					return sol.LifetimeMinutes, len(sol.Schedule), nil
				},
			}, nil
		},
	})
	Register(Builder{
		Name:          "analytic",
		Doc:           "closed-form continuous-KiBaM lifetime (single battery)",
		SingleBattery: true,
		Build: func(raw json.RawMessage) (sweep.PolicyCase, error) {
			if err := noParams(raw); err != nil {
				return sweep.PolicyCase{}, err
			}
			return sweep.PolicyCase{
				Name: "analytic",
				Run: func(c *core.Compiled) (float64, int, error) {
					lt, err := c.AnalyticLifetime()
					return lt, 0, err
				},
			}, nil
		},
	})
	Register(Builder{
		Name: "montecarlo", Aliases: []string{"mc"},
		Doc: "mean lifetime over sampled random loads on the continuous KiBaM; params: {\"samples\", \"seed\", \"policy\", \"generator\", \"idle\", \"p_high\", \"p_stay\", \"horizon\"}",
		Build: func(raw json.RawMessage) (sweep.PolicyCase, error) {
			p := MonteCarloParams{Samples: 100, Seed: 1, Policy: "bestof", Generator: "intermittent", Idle: 1, PHigh: 0.5, PStay: 0.75}
			if err := decodeParams(raw, &p); err != nil {
				return sweep.PolicyCase{}, err
			}
			if p.Samples <= 0 {
				return sweep.PolicyCase{}, fmt.Errorf(
					"%w: montecarlo samples must be positive (got %d)", ErrSolverParams, p.Samples)
			}
			if p.Horizon < 0 {
				return sweep.PolicyCase{}, fmt.Errorf(
					"%w: montecarlo horizon must be non-negative (got %v)", ErrSolverParams, p.Horizon)
			}
			if p.Generator != "intermittent" && p.Generator != "markov" {
				return sweep.PolicyCase{}, fmt.Errorf(
					"%w: unknown montecarlo generator %q (want intermittent or markov)",
					ErrSolverParams, p.Generator)
			}
			base, err := BuildSolver(Solver{Name: p.Policy})
			if err != nil {
				return sweep.PolicyCase{}, err
			}
			if base.Policy == nil {
				return sweep.PolicyCase{}, fmt.Errorf(
					"%w: montecarlo policy %q is not a deterministic policy", ErrSolverParams, p.Policy)
			}
			return sweep.PolicyCase{
				Name: "montecarlo",
				Run: func(c *core.Compiled) (float64, int, error) {
					horizon := p.Horizon
					if horizon == 0 {
						horizon = c.Load().TotalDuration()
					}
					var gen mcarlo.Generator
					if p.Generator == "markov" {
						gen = mcarlo.MarkovBurst(p.Idle, horizon, p.PStay)
					} else {
						gen = mcarlo.RandomIntermittent(p.Idle, horizon, p.PHigh)
					}
					dist, err := mcarlo.LifetimeDistribution(c.Batteries(), base.Policy, gen, p.Samples, p.Seed)
					if err != nil {
						return 0, 0, err
					}
					return dist.Mean, len(dist.Samples), nil
				},
			}, nil
		},
	})
}
