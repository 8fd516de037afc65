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
//
// The model is a configuration, not a pipeline: compile under it with
// f90y.CompileCtx and f90y.Config{Opt: cmf.OptOptions(), PE:
// cmf.PEOptions()}.
package cmf

import (
	"f90y/internal/opt"
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
