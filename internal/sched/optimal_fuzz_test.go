package sched

import (
	"errors"
	"reflect"
	"testing"

	"batsched/internal/battery"
	"batsched/internal/dkibam"
	"batsched/internal/load"
)

// fuzzBatteries are the battery types FuzzOptimalSolve builds banks from:
// the paper's B1 and B2 and a small cell that dies within a few jobs.
var fuzzBatteries = [...]battery.Params{
	battery.B1(),
	battery.B2(),
	{Capacity: 2, C: battery.ItsyC, KPrime: battery.ItsyKPrime, Label: "S"},
}

// fuzzCurrents are the levels a load segment may draw, in amperes.
var fuzzCurrents = [...]float64{0, 0.1, load.LowCurrent, load.HighCurrent}

const (
	// fuzzGrid is the coarse T = Γ grid of the fuzzed cells; a load segment
	// lasts a whole number of steps.
	fuzzGrid = 0.5
	// fuzzMaxHorizon bounds the fuzzed loads in minutes. A load repeats its
	// period until it has drawn the bank's whole capacity, so a bank dies
	// within it unless its jobs draw less than a charge unit each; a cell
	// that would need longer is skipped.
	fuzzMaxHorizon = 120
	// fuzzMaxCapacity skips banks larger than three B1 cells in A·min, on
	// which the reference search takes seconds.
	fuzzMaxCapacity = 16.5
)

// fuzzCell decodes a fuzz input into a bank and a compiled load. The low two
// bits of bank pick 1–3 batteries, and each following pair of bits one
// battery's type. Each byte of shape, at most four, is one segment of a
// periodic load: its low two bits the current level, the next four its
// duration in grid steps. ok is false for inputs that decode to no cell: an
// empty or too long shape, a bank past fuzzMaxCapacity, or a load that
// cannot drain the bank within fuzzMaxHorizon.
func fuzzCell(bank uint8, shape []byte) (ds []*dkibam.Discretization, cl load.Compiled, ok bool) {
	if len(shape) == 0 || len(shape) > 4 {
		return nil, load.Compiled{}, false
	}
	n := int(bank&3)%3 + 1
	types := bank >> 2
	capacity := 0.0
	for i := 0; i < n; i++ {
		b := fuzzBatteries[int(types&3)%len(fuzzBatteries)]
		d, err := dkibam.Discretize(b, fuzzGrid, fuzzGrid)
		if err != nil {
			return nil, load.Compiled{}, false
		}
		ds = append(ds, d)
		capacity += b.Capacity
		types >>= 2
	}
	if capacity > fuzzMaxCapacity {
		return nil, load.Compiled{}, false
	}
	period := make([]load.Segment, len(shape))
	for i, b := range shape {
		period[i] = load.Segment{
			Current:  fuzzCurrents[b&3],
			Duration: float64((b>>2)&15+1) * fuzzGrid,
		}
	}
	// Repeat the period until it has drawn the bank's capacity, then once
	// more as slack for the charge-unit rounding.
	var segs []load.Segment
	drawn, t := 0.0, 0.0
	for done := false; !done; {
		done = drawn >= capacity
		for _, s := range period {
			segs = append(segs, s)
			drawn += s.Current * s.Duration
			t += s.Duration
		}
		if t > fuzzMaxHorizon {
			return nil, load.Compiled{}, false
		}
	}
	l, err := load.New("fuzz", segs...)
	if err != nil {
		return nil, load.Compiled{}, false
	}
	cl, err = load.Compile(l, fuzzGrid, fuzzGrid)
	if err != nil {
		return nil, load.Compiled{}, false
	}
	return ds, cl, true
}

// FuzzOptimalSolve holds the serial search, the work-stealing search and
// the reference exhaustive search to one answer on random small cells: the
// same lifetime and the same schedule, which must replay to that lifetime.
// The seeds are paper loads (CL 250, CL alt, ILs alt, ILl 500) on 2xB1, a
// mixed B1+B2 bank and three small cells.
func FuzzOptimalSolve(f *testing.F) {
	const (
		cl250   = 1<<2 | 2 // 1 min at 250 mA
		cl500   = 1<<2 | 3 // 1 min at 500 mA
		idle1   = 1 << 2   // 1 min idle
		idle2   = 3 << 2   // 2 min idle
		twoB1   = 1
		mixed   = 1 | 1<<4 // B1 then B2
		threeS  = 2 | (2|2<<2|2<<4)<<2
		oneB2   = 1 << 2
		threeB1 = 2
	)
	f.Add(uint8(twoB1), []byte{cl250})
	f.Add(uint8(twoB1), []byte{cl500, cl250})
	f.Add(uint8(twoB1), []byte{cl250, idle1, cl500, idle1})
	f.Add(uint8(mixed), []byte{cl500, idle2})
	f.Add(uint8(threeS), []byte{cl250, idle1, cl500, idle1})
	f.Add(uint8(oneB2), []byte{cl500})
	f.Add(uint8(threeB1), []byte{cl500, idle1})
	f.Fuzz(func(t *testing.T, bank uint8, shape []byte) {
		ds, cl, ok := fuzzCell(bank, shape)
		if !ok {
			t.Skip()
		}
		// A job too short for its current to draw a whole charge unit draws
		// none, so a bank can outlive the load: then every search must fail
		// alike.
		serial, serialErr := Solve(ds, cl, Options{Workers: 1})
		if serialErr != nil && !errors.Is(serialErr, errHorizon) {
			t.Fatalf("serial: %v", serialErr)
		}
		for _, o := range []struct {
			name string
			opts Options
		}{{"parallel", Options{Workers: 3}}, {"reference", Options{Reference: true}}} {
			res, err := Solve(ds, cl, o.opts)
			if serialErr != nil {
				if !errors.Is(err, errHorizon) {
					t.Fatalf("%s: %v, serial failed with %v", o.name, err, serialErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", o.name, err)
			}
			if res.Lifetime != serial.Lifetime {
				t.Fatalf("%s lifetime %v, serial %v", o.name, res.Lifetime, serial.Lifetime)
			}
			if !reflect.DeepEqual(res.Schedule, serial.Schedule) {
				t.Fatalf("%s schedule diverged\n got: %v\nwant: %v", o.name, res.Schedule, serial.Schedule)
			}
		}
		if serialErr != nil {
			return
		}
		replayed, _, err := Run(ds, cl, Replay("fuzz", serial.Schedule))
		if err != nil {
			t.Fatal(err)
		}
		if replayed != serial.Lifetime {
			t.Fatalf("schedule replays to %v, search says %v", replayed, serial.Lifetime)
		}
	})
}
