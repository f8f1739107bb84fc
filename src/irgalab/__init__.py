"""irgalab: verification toolkit for inverse relative gain arrays.

Exact and floating-point machinery for S = (P o P^-1)^-1 of symmetric PD
matrices: doubly stochastic membership checks, symbolic entry polynomials
with sum-of-squares certificate verification, majorization decisions and
witnesses, Kronecker/block compositions that retain the
diagonal-majorizes-spectrum property, and a majorization-guided lattice
search.
"""

from .exact import Polynomial, VariableSet
from .irga import (
    IrgaReport,
    PdSample,
    SearchOutcome,
    check_conjecture,
    mix64,
    random_pd,
    rga,
    search_counterexample,
)
from .linalg import (
    Matrix,
    adjugate_entry,
    cholesky,
    hadamard,
    inverse,
    is_positive_definite,
    kron,
    load_matrix,
    load_vector,
)
from .majorization import (
    BirkhoffDecomposition,
    MajorizationVerdict,
    TransferChain,
    TTransform,
    birkhoff,
    majorizes,
    shannon_entropy,
    transfer_chain,
)
from .polytext import (
    ParseDiagnostic,
    ParsedExpression,
    PolyParseError,
    parse_expression,
    parse_polynomial,
    render_polynomial,
)
from .search import SearchConfig, SearchState, SearchTrace, neighbors, run, step
from .sos import (
    IdentityTestReport,
    SoSCertificate,
    builtin_certificate,
    builtin_expression,
    builtin_polynomial,
    cholesky_variables,
    entry_polynomial,
    exact_entry_oracle,
    identity_test,
    symbolic_gram,
)
from .spdd import (
    BlockPlan,
    Gauge,
    SpddMatrix,
    assemble_gpdd,
    block_gauge,
    block_plan,
    kron_gauge,
    kron_spdd,
    make_gauge,
    make_spdd,
    unitary_class_check,
    verify_majorization_theorem,
    verify_mapping,
)

__version__ = "0.1.0"
