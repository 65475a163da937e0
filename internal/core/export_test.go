package core

import (
	"fmt"

	"batsched/internal/battery"
	"batsched/internal/dkibam"
	"batsched/internal/load"
)

// CompileUninterned is Compile with every battery discretized afresh by
// dkibam.Discretize, bypassing the shared table: the reference the
// shared-discretization tests hold Compile to.
func CompileUninterned(batteries []battery.Params, ld load.Load, stepMin, unitAmpMin float64) (*Compiled, error) {
	if len(batteries) == 0 {
		return nil, ErrNoBatteries
	}
	ds := make([]*dkibam.Discretization, len(batteries))
	for i, b := range batteries {
		d, err := dkibam.Discretize(b, stepMin, unitAmpMin)
		if err != nil {
			return nil, fmt.Errorf("battery %d: %w", i, err)
		}
		ds[i] = d
	}
	cl, err := load.Compile(ld, stepMin, unitAmpMin)
	if err != nil {
		return nil, err
	}
	return &Compiled{
		batteries: append([]battery.Params(nil), batteries...),
		ld:        ld,
		discs:     ds,
		cl:        cl,
	}, nil
}
