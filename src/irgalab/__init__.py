"""irgalab: verification toolkit for inverse relative gain arrays.

Exact and floating-point machinery for S = (P o P^-1)^-1 of symmetric PD
matrices: doubly stochastic membership checks, symbolic entry polynomials
with sum-of-squares certificate verification, majorization decisions and
witnesses, Kronecker/block compositions that retain the
diagonal-majorizes-spectrum property, and a majorization-guided lattice
search.

The package loads lazily (PEP 562): ``import irgalab`` imports none of its
submodules, nor numpy.  Each name of ``__all__`` is imported from its
module on first access, as ``irgalab.check_conjecture`` or
``from irgalab import birkhoff``, and so is each submodule, as
``irgalab.linalg``.
"""

import importlib

_EXPORTS = {
    "exact": ("Polynomial", "VariableSet"),
    "irga": (
        "IrgaReport", "PdSample", "SearchOutcome", "check_conjecture", "mix64",
        "random_pd", "rga", "search_counterexample",
    ),
    "linalg": (
        "Matrix", "adjugate_entry", "cholesky", "hadamard", "inverse",
        "is_positive_definite", "kron", "load_matrix", "load_vector",
    ),
    "majorization": (
        "BirkhoffDecomposition", "MajorizationVerdict", "TransferChain", "TTransform",
        "birkhoff", "majorizes", "shannon_entropy", "transfer_chain",
    ),
    "polytext": (
        "ParseDiagnostic", "ParsedExpression", "PolyParseError", "parse_expression",
        "parse_polynomial", "render_polynomial",
    ),
    "search": ("SearchConfig", "SearchState", "SearchTrace", "neighbors", "run", "step"),
    "sos": (
        "IdentityTestReport", "SoSCertificate", "builtin_certificate", "builtin_expression",
        "builtin_polynomial", "cholesky_variables", "entry_polynomial", "exact_entry_oracle",
        "identity_test", "symbolic_gram",
    ),
    "spdd": (
        "BlockPlan", "Gauge", "SpddMatrix", "assemble_gpdd", "block_gauge", "block_plan",
        "kron_gauge", "kron_spdd", "make_gauge", "make_spdd", "unitary_class_check",
        "verify_majorization_theorem", "verify_mapping",
    ),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_OWNERS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        # Importing a submodule binds it on the package.
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNERS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _OWNERS.keys() | _SUBMODULES)
