"""Exact Kronecker products of Schur functions with a two-row factor.

The expansion of s_{(n-p,p)} * s_lam is computed by counting Kronecker
tableaux whenever lam_1 >= 2p-1 or l(lam) >= 2p-1, and a single coefficient
with its upper bound from one table of the paper's per-alpha sums, whose
walks have at most p cells.  Both are cross-checked against the tableau
rule, a signed skew-product oracle and a symmetric group character oracle,
with closed formulas and multiplicity-freeness classifications on top.
"""

from . import kronecker, oracle
from .expansion import SchurExpansion
from .formulas import (
    MfreeVerdict,
    descent_count,
    hook_coeff,
    is_multiplicity_free,
    nu_double_pair_coeff,
    p1_expand,
    rect_p2_expand,
    tworow_target_coeff,
    tworow_tworow_coeff,
    tworow_tworow_sequence,
)
from .kronecker import (
    METHOD_CONJUGATE,
    METHOD_ORACLE,
    METHOD_ROWS,
    KronExpansion,
    KronResult,
    kron_coeff,
    kron_expand_tworow,
    kron_upper_bound,
    kronecker_tableau_count,
)
from .oracle import (
    CycleType,
    centralizer_order,
    cycle_types,
    dimension,
    mn_character,
    oracle_character_coeff,
    oracle_character_kron,
    oracle_tworow_signed_coeff,
    oracle_tworow_signed_sum,
)
from .partitions import (
    DomainError,
    InvariantError,
    Partition,
    PartitionParseError,
    SkewShape,
    conjugate,
    contains,
    enumerate_partitions,
    format_partition,
    intersect,
    lex_compare,
    parse_partition,
    part,
    partition,
    skew_shape,
)
from .skew import (
    PositivityResult,
    join,
    min_lex_term,
    positivity_diff,
    reverse_lex_filling,
    skew_expand,
    skew_times_alpha,
)
from .tableaux import (
    Tableau,
    count_ssyt_alpha_lattice,
    is_alpha_lattice,
    is_ssyt,
    lr_coefficient,
    reverse_reading_word,
    tableau_type,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo in the package, so that the next call computes
    afresh (for timing, or before patching an engine underneath a cache):
    ``kron_coeff``'s answers, the unshifted walks its tables are built from
    (``kronecker._lr_walk``) and the character tables."""
    for cache in (
        kronecker._kron_coeff,
        kronecker._lr_walk,
        oracle._char_table,
    ):
        cache.cache_clear()


__all__ = [
    "CycleType",
    "DomainError",
    "InvariantError",
    "KronExpansion",
    "KronResult",
    "METHOD_CONJUGATE",
    "METHOD_ORACLE",
    "METHOD_ROWS",
    "MfreeVerdict",
    "Partition",
    "PartitionParseError",
    "PositivityResult",
    "SchurExpansion",
    "SkewShape",
    "Tableau",
    "centralizer_order",
    "clear_caches",
    "conjugate",
    "contains",
    "count_ssyt_alpha_lattice",
    "cycle_types",
    "descent_count",
    "dimension",
    "enumerate_partitions",
    "format_partition",
    "hook_coeff",
    "intersect",
    "is_alpha_lattice",
    "is_multiplicity_free",
    "is_ssyt",
    "join",
    "kron_coeff",
    "kron_expand_tworow",
    "kron_upper_bound",
    "kronecker_tableau_count",
    "lex_compare",
    "lr_coefficient",
    "min_lex_term",
    "mn_character",
    "nu_double_pair_coeff",
    "oracle_character_coeff",
    "oracle_character_kron",
    "oracle_tworow_signed_coeff",
    "oracle_tworow_signed_sum",
    "p1_expand",
    "parse_partition",
    "part",
    "partition",
    "positivity_diff",
    "rect_p2_expand",
    "reverse_lex_filling",
    "reverse_reading_word",
    "skew_expand",
    "skew_shape",
    "skew_times_alpha",
    "tableau_type",
    "tworow_target_coeff",
    "tworow_tworow_coeff",
    "tworow_tworow_sequence",
]
