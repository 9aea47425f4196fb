"""Exact zero-sum invariants over finite abelian groups.

Core objects: AbelianGroup, ZSequence, and the invariants sumset / mz /
support_size / davenport; exhaustive verification of the combinatorial
laws relating them; and class groups of imaginary quadratic fields where
those laws bound ideal factorizations.
"""

from .errors import (
    ArityError,
    BudgetExceededError,
    DomainError,
    InvalidElementError,
    InvalidIdealError,
    ParseError,
    StructureError,
    ZerosumError,
)
from .groups import (
    AbelianGroup,
    ZSequence,
    element_add,
    element_neg,
    format_element,
    groups_of_order,
    parse_element,
    parse_entries,
    parse_group,
    units,
)
from .sums import (
    INFINITY,
    DavenportResult,
    MZResult,
    SumSet,
    davenport,
    has_zero_sum_of_size,
    mz,
    sumset,
    support_size,
)
from .quad import (
    ClassGroup,
    QuadIdeal,
    QuadOrder,
    ShortPrincipalProduct,
    class_group,
    find_short_principal_product,
    ideal_class,
    ideal_mul,
    ideal_pow,
    is_irreducible,
    is_principal,
    principal_ideal,
    reduce_form,
    reduced_class_ideal,
    reduced_forms,
)
from .verify import (
    VerificationReport,
    clear_caches,
    reports_to_json,
    verify_all,
    verify_corollary_short_zero_sum,
    verify_davenport_table,
    verify_egz,
    verify_extremal_structure,
    verify_prop_all_equal,
    verify_sumset_lemmas,
    verify_thm_main,
)

__version__ = "0.1.0"
