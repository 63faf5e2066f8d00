"""finring: finite rings, the functions their polynomials induce, and
exhaustive structural checks over a catalog of small examples."""

from .core import (
    AxiomViolation,
    FiniteRing,
    InternalInvariantError,
    LocalFactor,
    RingInvariants,
    SubsetMask,
    UnsupportedStructureError,
    analyze,
    invariant_signature,
    local_decomposition,
    make_product,
    make_quotient,
    make_table_ring,
    make_zero_mul_ring,
    make_zn,
    primitive_idempotents,
    residue_field,
    rings_isomorphic,
    validate_ring,
)
from .polyfun import (
    FunctionTable,
    Polynomial,
    PolyFunctionSet,
    char_poly_for_subset,
    function_count,
    function_table,
    image,
    interpolate_field,
    is_polynomial_function,
    poly_eval,
    poly_from,
    poly_x,
    polynomial_function_set,
    power_stabilization,
)
from .catalog import (
    RingSpecError,
    parse_poly_text,
    parse_ring_spec,
    realize,
    render_poly,
    render_ring_spec,
    standard_catalog,
)
from .theorems import RESULT_IDS, Verdict

__version__ = "0.1.0"
