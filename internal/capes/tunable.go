package capes

import (
	"fmt"
)

// Tunable describes one parameter CAPES may adjust (§3.7): a valid range
// and a tuning step size. "For instance, one can say that we need to tune
// the I/O size, which has a valid range from 1 KB to 256 KB, and a tuning
// step size of 1 KB."
type Tunable struct {
	Name    string
	Min     float64
	Max     float64
	Step    float64
	Default float64
}

// Validate checks the tunable definition.
func (t Tunable) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("capes: tunable needs a name")
	}
	if t.Max < t.Min {
		return fmt.Errorf("capes: tunable %s has inverted range [%v,%v]", t.Name, t.Min, t.Max)
	}
	if t.Step <= 0 {
		return fmt.Errorf("capes: tunable %s step must be positive", t.Name)
	}
	if t.Default < t.Min || t.Default > t.Max {
		return fmt.Errorf("capes: tunable %s default %v outside [%v,%v]", t.Name, t.Default, t.Min, t.Max)
	}
	return nil
}

// Clamp limits v to the tunable's range.
func (t Tunable) Clamp(v float64) float64 {
	if v < t.Min {
		return t.Min
	}
	if v > t.Max {
		return t.Max
	}
	return v
}

// ActionSpace maps between the DQN's discrete action ids and parameter
// adjustments. Per §3.7 the space has 2·k+1 actions for k tunables: a
// NULL action (id 0) plus decrease/increase by one step for each tunable.
type ActionSpace struct {
	Tunables []Tunable
}

// NewActionSpace validates the tunables and builds the space.
func NewActionSpace(tunables ...Tunable) (*ActionSpace, error) {
	if len(tunables) == 0 {
		return nil, fmt.Errorf("capes: need at least one tunable")
	}
	seen := map[string]bool{}
	for _, t := range tunables {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("capes: duplicate tunable %q", t.Name)
		}
		seen[t.Name] = true
	}
	return &ActionSpace{Tunables: append([]Tunable(nil), tunables...)}, nil
}

// NumActions returns 2·k+1.
func (s *ActionSpace) NumActions() int { return 2*len(s.Tunables) + 1 }

// NullAction is the action id that changes nothing.
const NullAction = 0

// decode returns the tunable index and direction for an action id, or
// (-1,false) for out-of-range ids.
func (s *ActionSpace) decode(action int) (idx int, up bool) {
	if action <= NullAction || action >= s.NumActions() {
		return -1, false
	}
	idx = (action - 1) / 2
	up = (action-1)%2 == 1
	return idx, up
}

// DecreaseAction returns the action id that lowers tunable idx.
func (s *ActionSpace) DecreaseAction(idx int) int { return 1 + 2*idx }

// IncreaseAction returns the action id that raises tunable idx.
func (s *ActionSpace) IncreaseAction(idx int) int { return 2 + 2*idx }

// Defaults returns the default value vector.
func (s *ActionSpace) Defaults() []float64 {
	vals := make([]float64, len(s.Tunables))
	for i, t := range s.Tunables {
		vals[i] = t.Default
	}
	return vals
}

// ApplyInto writes into dst the parameter vector that results from
// taking `action` at `current`, clamped to each tunable's valid range.
// dst may alias current; otherwise current is not modified. An invalid
// action id is treated as NULL. It never allocates, so the engine's
// action tick applies into a preallocated buffer.
func (s *ActionSpace) ApplyInto(dst, current []float64, action int) {
	if len(current) != len(s.Tunables) || len(dst) != len(s.Tunables) {
		panic(fmt.Sprintf("capes: ApplyInto got %d/%d values for %d tunables", len(dst), len(current), len(s.Tunables)))
	}
	copy(dst, current)
	idx, up := s.decode(action)
	if idx < 0 {
		return
	}
	t := s.Tunables[idx]
	if up {
		dst[idx] = t.Clamp(dst[idx] + t.Step)
	} else {
		dst[idx] = t.Clamp(dst[idx] - t.Step)
	}
}

// LustreTunables returns the two parameters the evaluation tunes on every
// client (§4.1): max_rpc_in_flight and the I/O rate limit. Ranges follow
// the simulated cluster's valid ranges; the window default is Lustre's 8.
func LustreTunables() []Tunable {
	return []Tunable{
		{Name: "max_rpc_in_flight", Min: 1, Max: 256, Step: 4, Default: 8},
		{Name: "io_rate_limit", Min: 50, Max: 20000, Step: 500, Default: 20000},
	}
}
