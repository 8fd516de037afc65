package driver

import (
	"reflect"
	"testing"

	"f90y"
	"f90y/internal/opt"
	"f90y/internal/pe"
)

// TestFingerprintGolden pins the exact cache-key rendering for the
// configurations the tools actually use. If this test fails, a config
// field changed meaning or the rendering drifted: bump the "fp1"
// version prefix (invalidating old keys deliberately) and update the
// goldens, rather than letting the key change silently.
func TestFingerprintGolden(t *testing.T) {
	cases := []struct {
		name string
		cfg  f90y.Config
		want string
	}{
		{
			"default",
			f90y.DefaultConfig(),
			"fp1|opt:pad=true,block=true|pe:cse=true,chain=true,fmadd=true,overlap=true,vregs=0",
		},
		{
			"zero",
			f90y.Config{},
			"fp1|opt:pad=false,block=false|pe:cse=false,chain=false,fmadd=false,overlap=false,vregs=0",
		},
		{
			"naive-pe",
			f90y.Config{Opt: opt.Default, PE: pe.Naive},
			"fp1|opt:pad=true,block=true|pe:cse=false,chain=false,fmadd=false,overlap=false,vregs=0",
		},
		{
			"vreg-ablation",
			f90y.Config{Opt: opt.Options{PadSections: true}, PE: pe.Options{CSE: true, VRegs: 4}},
			"fp1|opt:pad=true,block=false|pe:cse=true,chain=false,fmadd=false,overlap=false,vregs=4",
		},
		{
			"distribute",
			func() f90y.Config {
				c := f90y.DefaultConfig()
				c.Distribute = []string{"a=cyclic", "b=block,cyclic(2)"}
				return c
			}(),
			"fp1|opt:pad=true,block=true|pe:cse=true,chain=true,fmadd=true,overlap=true,vregs=0|dist:a=cyclic;b=block,cyclic(2)",
		},
	}
	for _, c := range cases {
		if got := Fingerprint(c.cfg); got != c.want {
			t.Errorf("%s:\n got  %s\n want %s", c.name, got, c.want)
		}
	}
}

// TestFingerprintCoversEveryField fails when opt.Options or pe.Options
// gains (or loses) a field without Fingerprint being revisited: the
// old %+v rendering changed meaning silently on any struct edit; the
// explicit rendering instead makes this test the tripwire.
func TestFingerprintCoversEveryField(t *testing.T) {
	if n := reflect.TypeOf(opt.Options{}).NumField(); n != 2 {
		t.Errorf("opt.Options has %d fields; Fingerprint renders 2 — "+
			"add the new field to Fingerprint (and the golden test) or exclude it deliberately, then update this count", n)
	}
	if n := reflect.TypeOf(pe.Options{}).NumField(); n != 5 {
		t.Errorf("pe.Options has %d fields; Fingerprint renders 5 — "+
			"add the new field to Fingerprint (and the golden test) or exclude it deliberately, then update this count", n)
	}
	if n := reflect.TypeOf(f90y.Config{}).NumField(); n != 4 {
		t.Errorf("f90y.Config has %d fields; Fingerprint accounts for 4 "+
			"(Opt, PE, Distribute rendered; Obs deliberately excluded) — "+
			"decide whether the new field belongs in the cache key, then update this count", n)
	}
}

// TestFingerprintDistinguishesConfigs spot-checks that every rendered
// field actually separates keys.
func TestFingerprintDistinguishesConfigs(t *testing.T) {
	base := f90y.DefaultConfig()
	variants := []f90y.Config{
		{Opt: opt.Options{PadSections: false, BlockDomains: true}, PE: base.PE},
		{Opt: opt.Options{PadSections: true, BlockDomains: false}, PE: base.PE},
		{Opt: base.Opt, PE: pe.Options{CSE: false, Chaining: true, Fmadd: true, Overlap: true}},
		{Opt: base.Opt, PE: pe.Options{CSE: true, Chaining: false, Fmadd: true, Overlap: true}},
		{Opt: base.Opt, PE: pe.Options{CSE: true, Chaining: true, Fmadd: false, Overlap: true}},
		{Opt: base.Opt, PE: pe.Options{CSE: true, Chaining: true, Fmadd: true, Overlap: false}},
		{Opt: base.Opt, PE: pe.Options{CSE: true, Chaining: true, Fmadd: true, Overlap: true, VRegs: 6}},
		{Opt: base.Opt, PE: base.PE, Distribute: []string{"a=cyclic"}},
		{Opt: base.Opt, PE: base.PE, Distribute: []string{"a=cyclic(4)"}},
	}
	want := Fingerprint(base)
	seen := map[string]bool{want: true}
	for i, v := range variants {
		fp := Fingerprint(v)
		if fp == want {
			t.Errorf("variant %d fingerprints identically to the default: %s", i, fp)
		}
		if seen[fp] {
			t.Errorf("variant %d collides with an earlier variant: %s", i, fp)
		}
		seen[fp] = true
	}
}
