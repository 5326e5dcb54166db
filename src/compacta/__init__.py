"""Exact enumeration and asymptotics of compacted and relaxed binary trees.

A compacted binary tree is the DAG a hash-consing pass (the compiler
"value number" technique) produces from a full binary tree: every distinct
subtree is stored once, repeats become pointers to the first occurrence.
Relaxed trees drop the uniqueness requirement.  This package enumerates
both families exactly, with and without a bound on the right height, and
computes the growth constants and critical exponents of the bounded
families, cross-checking everything against independent brute-force
oracles.
"""

from .compaction import (
    UidTable,
    first_duplicate,
    is_compacted,
    uid_compact,
    unfold,
)
from .dfinite import (
    CertificationError,
    CountRecurrence,
    IntegralityError,
    SeededSequence,
    closed_form_oracle,
    ode_to_recurrence,
    seed,
    sequence_values,
)
from .exhaustive import (
    BudgetExceededError,
    brute_count,
    count_relaxed_spine_product,
    gen_spines,
    generate,
)
from .operators import (
    DiffOperator,
    build_operator,
    coeff_recurrences_check,
    op_compose,
)
from .poly import IntPoly
from .recurrences import CountTable, build_table, word_counts
from .trees import (
    BinaryTree,
    ParseError,
    RelaxedDag,
    SpineTree,
    dag_from_text,
    dag_to_text,
    parse_tree,
    print_tree,
    validate,
)

__version__ = "0.1.0"

# The asymptotics need mpmath, about half the cost of a cold import; only
# their names load it, on first use (PEP 562).  The exact side never does.
_ASYMPT = ("FitResult", "SingularityData", "fit_constant", "singularity_data", "table1")


def __getattr__(name: str):
    if name in _ASYMPT:
        from . import asympt
        return getattr(asympt, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_ASYMPT})
