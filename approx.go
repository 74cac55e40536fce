package knnshapley

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Bound selects the permutation-budget rule of the Monte-Carlo estimator.
// On the wire it travels as its lower-case name ("bennett",
// "bennett-approx", "hoeffding", "fixed").
type Bound int

// Budget rules, from tightest to loosest (see Figure 11).
const (
	// Bennett solves Theorem 5's Eq. (32) — the paper's improved bound,
	// roughly independent of N.
	Bennett Bound = iota
	// BennettApprox is the closed form T̃ = r²/ε²·log(2K/δ) (Eq. 34).
	BennettApprox
	// Hoeffding is the Section 2.2 baseline budget, growing with log N.
	Hoeffding
	// Fixed runs exactly MCParams.T permutations.
	Fixed
)

// boundNames maps each Bound onto its wire name, in constant order.
var boundNames = [...]string{"bennett", "bennett-approx", "hoeffding", "fixed"}

// BoundNames returns the wire names of every budget rule — the enum the
// method schemas advertise.
func BoundNames() []string { return append([]string(nil), boundNames[:]...) }

// ParseBound maps a wire name back onto its Bound.
func ParseBound(name string) (Bound, error) {
	for i, n := range boundNames {
		if n == name {
			return Bound(i), nil
		}
	}
	return 0, fmt.Errorf("unknown bound %q (want %s)", name, strings.Join(BoundNames(), ", "))
}

// String returns the wire name of the bound.
func (b Bound) String() string {
	if b >= 0 && int(b) < len(boundNames) {
		return boundNames[b]
	}
	return fmt.Sprintf("bound(%d)", int(b))
}

// MarshalJSON encodes the bound as its wire name.
func (b Bound) MarshalJSON() ([]byte, error) {
	if b < 0 || int(b) >= len(boundNames) {
		return nil, fmt.Errorf("knnshapley: cannot encode bound %d", int(b))
	}
	return json.Marshal(b.String())
}

// UnmarshalJSON accepts the wire name (and, leniently, the integer
// constant) of a budget rule.
func (b *Bound) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		parsed, err := ParseBound(s)
		if err != nil {
			return err
		}
		*b = parsed
		return nil
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("bound: want one of %s", strings.Join(BoundNames(), ", "))
	}
	if n < 0 || n >= len(boundNames) {
		return fmt.Errorf("bound %d outside [0,%d)", n, len(boundNames))
	}
	*b = Bound(n)
	return nil
}
