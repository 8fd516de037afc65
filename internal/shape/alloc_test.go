package shape

import "testing"

// TestQueriesDoNotAllocate pins the compile-path rule that asking a
// question of a shape is free: the classifier asks per array reference.
func TestQueriesDoNotAllocate(t *testing.T) {
	a, b := Of(16, 16), Of(16, 16)
	c := Prod{Dims: []Shape{Of(4, 4), Interval{Lo: 0, Hi: 7, Serial: true}}}
	sink := 0
	if n := testing.AllocsPerRun(100, func() {
		if Congruent(a, b) && !Congruent(a, c) && Serial(c) {
			sink += Size(a) + Size(c) + Rank(c)
		}
	}); n != 0 {
		t.Fatalf("Congruent/Size/Rank/Serial allocate %v times a round, want 0", n)
	}
	if sink == 0 {
		t.Fatal("queries answered wrongly")
	}
}
