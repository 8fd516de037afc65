// Package cmf models Thinking Machines' CM Fortran compiler (v1.1,
// slicewise) as the paper's comparator (§6: "The slicewise CM Fortran
// compiler (v1.1) reached an extrapolated 2.79 gigaflops").
//
// The model follows §6's own explanation of why Fortran-90-Y beats CMF:
// CMF generates competitive node code for each statement, but compiles
// per-statement — no shape-based blocking across statements, so PEAC
// subroutine call overhead is paid per statement and no values are reused
// across statement boundaries. The configuration therefore shares the
// entire Fortran-90-Y back end (including the tuned PE code generator)
// with the domain-blocking and communication-clustering transformations
// disabled.
package cmf

import (
	"context"

	"f90y/internal/cm2"
	"f90y/internal/fe"
	"f90y/internal/lower"
	"f90y/internal/opt"
	"f90y/internal/parser"
	"f90y/internal/partition"
	"f90y/internal/pe"
)

// OptOptions is the NIR transformation configuration modeling CMF:
// section padding (CMF's virtual-processor model also executes sections as
// masked full-VP-set operations) without cross-statement blocking.
func OptOptions() opt.Options {
	return opt.Options{PadSections: true, BlockDomains: false}
}

// PEOptions is the node-code configuration modeling CMF: within one
// statement the code generator is competitive (chaining, multiply-add,
// overlap), matching CMF's production-quality per-statement codeblocks.
func PEOptions() pe.Options {
	return pe.Optimized
}

// Compile compiles source under the CMF model, returning the partitioned
// program.
func Compile(filename, src string) (*fe.Program, partition.Stats, error) {
	tree, err := parser.Parse(filename, src)
	if err != nil {
		return nil, partition.Stats{}, err
	}
	mod, err := lower.Lower(tree)
	if err != nil {
		return nil, partition.Stats{}, err
	}
	omod, _ := opt.Optimize(mod, OptOptions())
	return partition.Compile(omod, PEOptions())
}

// Run compiles and executes source on the given machine under the CMF
// model.
func Run(filename, src string, m *cm2.Machine) (*cm2.Result, error) {
	prog, _, err := Compile(filename, src)
	if err != nil {
		return nil, err
	}
	return m.RunCtx(context.Background(), prog, nil, nil, nil)
}
