"""Grid-based electrostatics of many-particle systems in range-separated
canonical tensor form.

The collective potential of N particles is kept as one low-rank canonical
tensor for the smooth long-range part plus a list of translated, compactly
supported copies of a short-range template, so storage and evaluation stay
far below the naive N-times-rank cost.  The densified long part plus the
scattered short part is the potential on the full grid.  With
screened-Coulomb face values the 7-point discrete Laplacian of the long
part is the right-hand side of a diagonalization-based Poisson solver; the
same operator acts on canonical tensors mode-wise as
``apply_kron_laplacian``.
"""

from .errors import ConfigError, DataError, NumericError
from .formats import (CanonicalTensor3, TuckerTensor3, c2t_rhosvd, dense,
                      eval_entry, load_canonical, reduce_rank, save_canonical,
                      t2c, zero_canonical)
from .grid_kernel import (Grid3, ReferenceKernel, SincQuadrature,
                          assemble_reference_tensor, build_quadrature,
                          gamma_for_separation, gaussian_sum, split_reference)
from .assembly import (Atom, Molecule, RSTensor, assemble_collective,
                       rs_eval_entry, scatter_short, snap_to_grid,
                       snapped_molecule)
from .solver import (DiscreteLaplacian, GridFunction3, apply_kron_laplacian,
                     apply_stencil_dense, compose_total, load_field,
                     poisson_solve, save_field)
from .validation import (ErrorReport, compare, direct_sum_oracle,
                         gaussian_field, write_report)
from .cli import (RunConfig, export_slice, main, parse_pqr, resolve_box,
                  run_case, run_pipeline, synthetic_cluster)

__version__ = "0.1.0"

__all__ = [
    "Atom", "CanonicalTensor3", "ConfigError", "DataError",
    "DiscreteLaplacian", "ErrorReport", "Grid3", "GridFunction3", "Molecule",
    "NumericError", "RSTensor", "ReferenceKernel", "RunConfig",
    "SincQuadrature", "TuckerTensor3", "apply_kron_laplacian",
    "apply_stencil_dense", "assemble_collective", "assemble_reference_tensor",
    "build_quadrature", "c2t_rhosvd", "compare", "compose_total", "dense",
    "direct_sum_oracle", "eval_entry", "export_slice",
    "gamma_for_separation", "gaussian_field", "gaussian_sum",
    "load_canonical", "load_field", "main", "parse_pqr",
    "poisson_solve", "reduce_rank", "resolve_box", "rs_eval_entry",
    "run_case", "run_pipeline", "save_canonical", "save_field",
    "scatter_short", "snap_to_grid", "snapped_molecule", "split_reference",
    "synthetic_cluster", "t2c", "write_report", "zero_canonical",
]
