package fe

import (
	"testing"

	"f90y/internal/nir"
	"f90y/internal/peac"
	"f90y/internal/shape"
)

func TestCountOpsWalksNesting(t *testing.T) {
	prog := &Program{
		Name: "t",
		Ops: []Op{
			Assign{Tgt: nir.SVar{Name: "i"}, Src: nir.IntConst(0)},
			While{
				Cond: nir.Binary{Op: nir.Less, L: nir.SVar{Name: "i"}, R: nir.IntConst(4)},
				Body: []Op{
					CallNode{Routine: &peac.Routine{Name: "Pk0"}, Over: shape.Of(8)},
					Comm{Move: nir.Move{}},
					If{
						Cond: nir.BoolConst(true),
						Then: []Op{Assign{Tgt: nir.SVar{Name: "i"}, Src: nir.IntConst(1)}},
						Else: []Op{Stop{}},
					},
				},
			},
			DoSerial{S: shape.Interval{Lo: 1, Hi: 4, Serial: true}, Body: []Op{
				Print{Args: []nir.Value{nir.StrConst{S: "hi"}}},
			}},
		},
	}
	c := prog.CountOps()
	want := map[string]int{
		"assign": 2, "while": 1, "callnode": 1, "comm": 1,
		"if": 1, "stop": 1, "do": 1, "print": 1,
	}
	for k, w := range want {
		if c[k] != w {
			t.Errorf("%s = %d, want %d (all: %v)", k, c[k], w, c)
		}
	}
}

func TestCountOpsEmpty(t *testing.T) {
	p := &Program{Name: "empty"}
	if len(p.CountOps()) != 0 {
		t.Fatalf("counts = %v", p.CountOps())
	}
}
