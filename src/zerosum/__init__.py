"""Exact zero-sum invariants over finite abelian groups.

Core objects: AbelianGroup, ZSequence, and the invariants sumset / mz /
support_size / davenport; exhaustive verification of the combinatorial
laws relating them; and class groups of imaginary quadratic fields where
those laws bound ideal factorizations.

`import zerosum` loads no submodule: a public name, or a submodule such
as `zerosum.verify`, is imported on first access (PEP 562), so a program
pays start-up time only for the parts it uses.
"""

_EXPORTS = {
    "errors": (
        "ArityError", "BudgetExceededError", "DomainError", "InvalidElementError",
        "InvalidIdealError", "ParseError", "StructureError", "ZerosumError",
    ),
    "groups": (
        "AbelianGroup", "ZSequence", "element_add", "element_neg", "format_element",
        "groups_of_order", "parse_element", "parse_entries", "parse_group",
    ),
    "sums": (
        "INFINITY", "DavenportResult", "MZResult", "SumSet", "davenport",
        "has_zero_sum_of_size", "mz", "sumset", "support_size",
    ),
    "quad": (
        "ClassGroup", "QuadIdeal", "QuadOrder", "ShortPrincipalProduct", "class_group",
        "find_short_principal_product", "ideal_class", "ideal_mul", "is_irreducible",
        "is_principal", "principal_ideal", "reduce_form", "reduced_forms",
    ),
    "verify": (
        "VerificationReport", "clear_caches", "reports_to_json", "verify_all",
        "verify_corollary_short_zero_sum", "verify_davenport_table", "verify_egz",
        "verify_extremal_structure", "verify_prop_all_equal", "verify_sumset_lemmas",
        "verify_thm_main",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import binds the submodule in globals(); unlike
    # importlib.import_module, __import__ shows it to `python -X importtime`
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
