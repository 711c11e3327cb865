package dataflow

import (
	"slices"
	"testing"
)

// TestPlanLoop pins the compile-time register lifetimes: which body
// unions accumulate in place, and which mult outputs and carry slots
// each iteration leaves dead.
func TestPlanLoop(t *testing.T) {
	op := func(k Kind, x, y int) Instr {
		return Instr{Kind: k, XRef: x, YRef: y, MaskRef: RefNone, AlphaRef: RefNone,
			UntilEmpty: RefNone, UntilBelow: RefNone}
	}
	c := CarryRef
	// passThrough is a nested loop whose value is the carry it is given.
	passThrough := func(r int) Instr {
		in := op(KLoop, RefNone, RefNone)
		in.Carry, in.Update, in.Body = []int{r}, []int{c(0)}, []Instr{op(KScale, c(0), RefNone)}
		return in
	}
	// loop builds a loop over body with the given update refs and
	// until_empty exit.
	loop := func(update []int, untilEmpty int, body ...Instr) Instr {
		in := op(KLoop, RefNone, RefNone)
		in.Body, in.Update, in.UntilEmpty = body, update, untilEmpty
		return in
	}
	bfsMult := op(KMult, c(0), RefNone)
	bfsMult.MaskRef = c(1)
	cases := []struct {
		name                     string
		loop                     Instr
		inPlace, dead, deadCarry []int
	}{
		{"bfs", loop([]int{2, 1}, 0, bfsMult, op(KUnion, c(1), 0), op(KIndices, 0, RefNone)),
			[]int{1}, []int{0}, nil},
		{"accumulate", loop([]int{0, c(1)}, RefNone, op(KUnion, c(0), c(1))), []int{0}, nil, nil},
		{"walk", loop([]int{0}, RefNone, op(KMult, c(0), RefNone)), nil, nil, []int{0}},
		{"walkTwoSlots", loop([]int{0, 0}, RefNone, op(KMult, c(0), RefNone)), nil, nil, nil},
		{"walkForwarded", loop([]int{0, c(0)}, RefNone, op(KMult, c(0), RefNone)), nil, nil, nil},
		{"walkNestedAlias", loop([]int{0, 1}, RefNone, op(KMult, c(0), RefNone), passThrough(0)), nil, nil, nil},
		{"carryReadAfter", loop([]int{0, c(1)}, RefNone, op(KUnion, c(0), c(1)), op(KScale, c(0), RefNone)), nil, nil, nil},
		{"unionReadAfter", loop([]int{0, c(1)}, RefNone, op(KUnion, c(0), c(1)), op(KScale, 0, RefNone)), nil, nil, nil},
		{"twoUpdates", loop([]int{0, 0}, RefNone, op(KUnion, c(0), c(1))), nil, nil, nil},
		{"carryForwarded", loop([]int{0, c(0)}, RefNone, op(KUnion, c(0), c(1))), nil, nil, nil},
		{"untilEmptyUnion", loop([]int{0, c(1)}, 0, op(KUnion, c(0), c(1))), nil, nil, nil},
		{"untilEmptyCarry", loop([]int{0, c(1)}, c(0), op(KUnion, c(0), c(1))), nil, nil, nil},
		{"yIsX", loop([]int{0}, RefNone, op(KUnion, c(0), c(0))), nil, nil, nil},
		{"updateNotTheUnion", loop([]int{1, c(1)}, RefNone, op(KUnion, c(0), c(1)), op(KScale, c(1), RefNone)), nil, nil, nil},
		{"nestedAliasAsY", loop([]int{1, c(1)}, RefNone, passThrough(c(0)), op(KUnion, c(0), 0)), nil, nil, nil},
		{"nestedCarriesUnion", loop([]int{0, c(1)}, RefNone, op(KUnion, c(0), c(1)), passThrough(0)), nil, nil, nil},
	}
	for _, tc := range cases {
		in := tc.loop
		PlanLoop(&in)
		var inPlace []int
		for j := range in.Body {
			if in.Body[j].InPlace {
				inPlace = append(inPlace, j)
			}
		}
		if !slices.Equal(inPlace, tc.inPlace) || !slices.Equal(in.Dead, tc.dead) || !slices.Equal(in.DeadCarry, tc.deadCarry) {
			t.Errorf("%s: in place %v, dead %v, dead carries %v; want %v, %v, %v",
				tc.name, inPlace, in.Dead, in.DeadCarry, tc.inPlace, tc.dead, tc.deadCarry)
		}
	}
}
