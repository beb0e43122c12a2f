package prog

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpFlopsDefaults(t *testing.T) {
	cases := []struct {
		op   Op
		want int64
	}{
		{Op{Class: VAdd, VL: 100}, 100},
		{Op{Class: VMul, VL: 100}, 100},
		{Op{Class: VDiv, VL: 50}, 50},
		{Op{Class: VLogical, VL: 100}, 0},
		{Op{Class: VLoad, VL: 100, Stride: 1}, 0},
		{Op{Class: VStore, VL: 100, Stride: 1}, 0},
		{Op{Class: VIntrinsic, VL: 10, Intr: Exp}, 10 * int64(IntrinsicFlops[Exp])},
		{Op{Class: VIntrinsic, VL: 10, Intr: Sqrt}, 10 * int64(IntrinsicFlops[Sqrt])},
		{Op{Class: VAdd, VL: 10, FlopsPerElem: 2}, 20},
		{Op{Class: Scalar, Count: 7, FlopsPerElem: 3}, 3},
	}
	for _, c := range cases {
		if got := c.op.Flops(); got != c.want {
			t.Errorf("%+v Flops() = %d, want %d", c.op, got, c.want)
		}
	}
}

func TestOpWords(t *testing.T) {
	cases := []struct {
		op   Op
		want int64
	}{
		{Op{Class: VLoad, VL: 100, Stride: 1}, 100},
		{Op{Class: VStore, VL: 100, Stride: 4}, 100},
		{Op{Class: VGather, VL: 100}, 200}, // data + index
		{Op{Class: VScatter, VL: 100}, 200},
		{Op{Class: VAdd, VL: 100}, 0},
		{Op{Class: Scalar, Count: 10}, 0},
	}
	for _, c := range cases {
		if got := c.op.Words(); got != c.want {
			t.Errorf("%+v Words() = %d, want %d", c.op, got, c.want)
		}
	}
}

func TestLoopAccounting(t *testing.T) {
	l := Loop{
		Trips: 10,
		Body: []Op{
			{Class: VLoad, VL: 64, Stride: 1},
			{Class: VMul, VL: 64},
			{Class: VAdd, VL: 64},
			{Class: VStore, VL: 64, Stride: 1},
		},
	}
	if got := l.Flops(); got != 10*128 {
		t.Errorf("Loop.Flops = %d, want 1280", got)
	}
	if got := l.Words(); got != 10*128 {
		t.Errorf("Loop.Words = %d, want 1280", got)
	}
}

func TestProgramTotals(t *testing.T) {
	p := Program{
		Name: "axpy",
		Phases: []Phase{
			{
				Name:     "main",
				Parallel: true,
				Loops: []Loop{{
					Trips: 4,
					Body: []Op{
						{Class: VLoad, VL: 256, Stride: 1},
						{Class: VLoad, VL: 256, Stride: 1},
						{Class: VMul, VL: 256},
						{Class: VAdd, VL: 256},
						{Class: VStore, VL: 256, Stride: 1},
					},
				}},
			},
			{Name: "tail", Loops: []Loop{{Trips: 1, Body: []Op{{Class: Scalar, Count: 5, FlopsPerElem: 2}}}}},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got, want := p.Flops(), int64(4*512+2); got != want {
		t.Errorf("Program.Flops = %d, want %d", got, want)
	}
	if got, want := p.Words(), int64(4*768); got != want {
		t.Errorf("Program.Words = %d, want %d", got, want)
	}
	if got, want := p.Bytes(), int64(8*4*768); got != want {
		t.Errorf("Program.Bytes = %d, want %d", got, want)
	}
}

func TestSimpleBuilder(t *testing.T) {
	p := Simple("copy", 100, Op{Class: VLoad, VL: 32, Stride: 1}, Op{Class: VStore, VL: 32, Stride: 1})
	if len(p.Phases) != 1 || !p.Phases[0].Parallel {
		t.Fatalf("Simple produced %+v, want one parallel phase", p.Phases)
	}
	if p.Phases[0].Loops[0].Trips != 100 {
		t.Errorf("trips = %d, want 100", p.Phases[0].Loops[0].Trips)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	bad := []Program{
		{Name: "neg", Phases: []Phase{{Loops: []Loop{{Trips: -1}}}}},
		{Name: "vl", Phases: []Phase{{Loops: []Loop{{Trips: 1, Body: []Op{{Class: VAdd, VL: 0}}}}}}},
		{Name: "scalar", Phases: []Phase{{Loops: []Loop{{Trips: 1, Body: []Op{{Class: Scalar}}}}}}},
		{Name: "intr", Phases: []Phase{{Loops: []Loop{{Trips: 1, Body: []Op{{Class: VIntrinsic, VL: 8, Intr: Intrinsic(99)}}}}}}},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%q) = nil, want error", p.Name)
		}
	}
}

func TestClassStrings(t *testing.T) {
	if VAdd.String() != "vadd" || VGather.String() != "vgather" || Scalar.String() != "scalar" {
		t.Error("unexpected class names")
	}
	if !strings.Contains(Class(99).String(), "99") {
		t.Error("out-of-range class should include its number")
	}
	if Exp.String() != "EXP" || Pow.String() != "PWR" {
		t.Error("unexpected intrinsic names")
	}
	if !strings.Contains(Intrinsic(99).String(), "99") {
		t.Error("out-of-range intrinsic should include its number")
	}
}

func TestMemoryClassPredicates(t *testing.T) {
	for _, c := range []Class{VLoad, VStore, VGather, VScatter} {
		if !c.IsMemory() {
			t.Errorf("%v.IsMemory() = false", c)
		}
	}
	for _, c := range []Class{VAdd, VMul, VDiv, VLogical, VIntrinsic, Scalar} {
		if c.IsMemory() {
			t.Errorf("%v.IsMemory() = true", c)
		}
	}
	if !VGather.IsIndirect() || !VScatter.IsIndirect() || VLoad.IsIndirect() {
		t.Error("IsIndirect misclassifies")
	}
}

func TestFlopsNonNegativeProperty(t *testing.T) {
	f := func(vl uint8, class uint8, fpe uint8) bool {
		op := Op{Class: Class(int(class) % 10), VL: int(vl) + 1, Count: 1, FlopsPerElem: int(fpe)}
		if op.Class == VIntrinsic {
			op.Intr = Exp
		}
		return op.Flops() >= 0 && op.Words() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPhaseFlopsSumsLoops(t *testing.T) {
	ph := Phase{Loops: []Loop{
		{Trips: 2, Body: []Op{{Class: VAdd, VL: 10}}},
		{Trips: 3, Body: []Op{{Class: VMul, VL: 10}}},
	}}
	if got := ph.Flops(); got != 50 {
		t.Errorf("Phase.Flops = %d, want 50", got)
	}
}
