"""Kronecker coefficients g_{(n-p,p),lam,nu} by counting Kronecker tableaux.

A Kronecker tableau of shape lam/alpha and type nu/alpha is an alpha-lattice
SSYT that additionally satisfies alpha_1 == alpha_2, or has a 1 in box
(2, alpha_1), or has exactly alpha_1 - alpha_2 2's in its first row.  When
lam_1 >= 2p-1 the coefficient of s_nu in s_{(n-p,p)} * s_lam equals the number
of Kronecker tableaux summed over alpha |- p inside the intersection of lam
and nu; when l(lam) >= 2p-1 the same rule applies to the conjugates.  Outside
both ranges the signed-sum oracle is used, and the alpha-sum is still an
upper bound.  That bound mostly comes from the per-alpha lemma of
``_alpha_bound``, whose walks have at most p cells; only an alpha with
alpha_1 > alpha_2 and 2 alpha_1 - 1 > max(lam_1, nu_1), whose type nu leaves
room for a Kronecker tableau, walks its Kronecker tableaux, and none does
when nu_1 >= 2p-1.

The full expansion runs the rule, whose walk of lam/alpha has n - p cells;
above RULE_MAX_CELLS of them it takes the signed sum instead, whose walks
have at most p cells and which is then the faster of the two.  Both
engines run at any depth; the choice is one of speed only.  ``_expand``
makes that choice, for the full expansion and for the capped one behind
``is_multiplicity_free``, and hands the rule's alpha-loop to
``tableaux._fill_alphas``.  A single coefficient comes from one table per
query on every route: ``_alpha_bound`` walks lam/mu and nu/mu, at most p
cells each, for the mu of the signed sum's two levels, on the wider of
(lam, nu) and (lam', nu') as the ``oracle`` docstring says, and reads both
the value and the bound from the L_alpha those walks give.  For one nu that is
far less work than the rule, and the walks do not deepen with n.  The
method tag still names the theorem that makes the value exact.
``_rule_coeff`` keeps the rule's own single coefficient, and
``oracle_tworow_signed_coeff`` the signed sum in count mode, as independent
references ``kron_coeff`` is tested against; neither reads the walk memo
(``_lr_walk``), and nor do the full expansions or a hard alpha's walk.
``kron_coeff`` keeps its whole answers in a memo (``KRON_COEFF_CACHE``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .expansion import SchurExpansion
from .oracle import _coeff_levels, oracle_tworow_signed_coeff, oracle_tworow_signed_sum
from .partitions import (
    InvariantError,
    Partition,
    check_partition,
    check_tworow_args,
    conjugate,
    contains,
    enumerate_partitions,
    intersect,
    part,
    remove_box,
)
from .tableaux import CapReached, _count_fillings, _fill, _fill_alphas, _key_cells, _row_key

METHOD_ROWS = "tableau_rule"
METHOD_CONJUGATE = "tableau_rule_conjugate"
METHOD_ORACLE = "oracle_fallback"


def two_row(n: int, p: int) -> Partition:
    """The partition (n-p, p), normalized when p (or n) is 0."""
    check_tworow_args(n, p)
    if p == 0:
        return (n,) if n else ()
    return (n - p, p)


class KronResult(NamedTuple):
    value: int
    method: str
    upper_bound: int | None = None


class KronExpansion(NamedTuple):
    expansion: SchurExpansion
    method: str


def _route(p: int, lam: Partition) -> tuple[str, Partition]:
    """The method for s_{(n-p,p)} * s_lam and the shape the tableau rule runs
    on: lam when lam_1 >= 2p-1, else its conjugate when l(lam) >= 2p-1
    (the signed-sum oracle, on lam, otherwise)."""
    if part(lam, 1) >= 2 * p - 1:
        return METHOD_ROWS, lam
    if len(lam) >= 2 * p - 1:
        return METHOD_CONJUGATE, conjugate(lam)
    return METHOD_ORACLE, lam


def kronecker_tableau_count(lam: Partition, alpha: Partition, nu: Partition) -> int:
    """Number of Kronecker tableaux of shape lam/alpha and type nu/alpha;
    0 whenever the containments or sizes fail."""
    lam, alpha, nu = (check_partition(shape) for shape in (lam, alpha, nu))
    if not contains(alpha, lam) or not contains(alpha, nu):
        return 0
    return _count_fillings(lam, alpha, nu, alpha, True)


def _tableau_sum(lam: Partition, nu: Partition, p: int) -> int:
    """The rule's sum on checked shapes of one size; every alpha lies inside
    lam & nu, so the counts need no guards.  The reference for
    ``_alpha_bound``, which gives the same number with shorter walks."""
    return sum(
        _count_fillings(lam, alpha, nu, alpha, True)
        for alpha in enumerate_partitions(p, inside=intersect(lam, nu))
    )


WALK_CACHE = 512
"""Most unshifted walks ``_lr_walk`` keeps, the least recently used dropped
first.  An L-walk of a query has at most p cells, and there are 401
distinct cell lists of at most 6 cells (1, 1, 3, 9, 28, 87 and 272 with 0
to 6 cells), so 512 keeps every L-walk of every query with p <= 6, at any
n.  ``python tools/walk_memo.py SEED`` replays one coeff-stream round
(p <= 6, n up to 2000); on seeds 1, 7 and 101 it prints "hits 19358 /
19494 / 20014 misses 376", "distinct keys 376, naming 376 lists" and
"traced bytes held 157744 / 157688 / 160544", 0.15 MiB.  The worst case
is 512 times the largest entry.  A row key is a few small tuples per row,
whatever the row's length, so an entry is almost all walk.  The walk of
(1200, 600)/(600,), two rows of 600 cells and about as long as a query
walks in seconds (2.0 s on a 2-core Xeon with Python 3.11), has 601 types
and holds 138,280 traced bytes with its key, about 230 bytes a type; its
cell list alone holds 106,872.  512 such entries would hold about
70 MiB."""


@lru_cache(maxsize=WALK_CACHE)
def _lr_walk(key: tuple[tuple[int, ...], ...]) -> dict[Partition, int]:
    """The unshifted walk of the shape with row key ``key``, {type: count},
    memoised; the key is exact (``tableaux._key_cells``), and the cell list
    is built here only on a miss.  Callers only read the dict."""
    return _fill(_key_cells(key), ())


def _lr_squares(lam: Partition, nu: Partition, mus: list[Partition]) -> dict[Partition, int]:
    """{alpha: sum over mu in mus of c^lam_{mu alpha} c^nu_{mu alpha}}, from
    the unshifted walks of lam/mu and nu/mu, kept by row key in ``_lr_walk``:
    a shape met again, on either side, for another mu or in a later query,
    is neither walked nor turned into a cell list again while it is kept."""
    out: dict[Partition, int] = {}
    for mu in mus:
        left, right = _lr_walk(_row_key(lam, mu)), _lr_walk(_row_key(nu, mu))
        for alpha, c in left.items():
            if alpha in right:
                out[alpha] = out.get(alpha, 0) + c * right[alpha]
    return out


def _alpha_bound(lam: Partition, nu: Partition, p: int) -> tuple[int, int]:
    """(g, bound): the coefficient g_{(n-p,p),lam,nu} and
    ``_tableau_sum(lam, nu, p)``, both read from one table of the L_a below,
    with most alpha of the bound counted by short walks.

    Write L_a = <s_a s_{lam/a}, s_nu>, the number of a-lattice SSYT of shape
    lam/a and type nu - a; K_a for the Kronecker tableaux among them; and a-
    for a with one box taken off row 1 (``remove_box(a, 0)``).  Then

        K_a = L_a           when a_1 == a_2,
        K_a = L_a - L_{a-}  when a_1 > a_2 and max(lam_1, nu_1) >= 2 a_1 - 1,
        K_a >= L_a - L_{a-} when a_1 > a_2.

    Proof.  The first line is condition (I).  Let a_1 > a_2, so a- is a
    partition.  The reverse reading word starts with row 1, read right to
    left, largest values first, so in an a-lattice word each k >= 3 of row 1
    is read before any k-1 and row 1 holds at most a_{k-1} - a_k of them;
    each 2 of row 1 is read before any 1, so it holds at most a_1 - a_2 2's,
    and with exactly that many the filling is a Kronecker tableau.

    The injection.  Let T be an a- -lattice SSYT of shape lam/a- and type
    nu - a- with a 1 in the leftmost cell of its row 1, box (1, a_1), and
    let S be T without that cell: shape lam/a, type nu - a.  S is
    semistandard.  It is a-lattice: the shift by a instead of a- adds one to
    the 1-tally, so before the deleted cell S's tallies are T's with one
    more 1, and from that cell on they are T's.  S is no Kronecker tableau:
    box (2, a_1), below the deleted 1, holds more than 1 or lies outside
    lam, and row 1 keeps T's 2's, at most a_1 - 1 - a_2 by the count above
    with a-.  Conversely, put a 1 in box (1, a_1) of an a-lattice S that is
    no Kronecker tableau, so with no 1 below that box and at most
    a_1 - a_2 - 1 2's in row 1.  The result T is semistandard, and
    a- -lattice: the tallies of the values >= 2 are S's throughout; while
    row 1 is read, the 1-tally is at least a_1 - 1, which is at least the
    2-tally a_2 + (2's read); and from the new 1 on, every tally is S's.
    The two maps are inverse, so

        K_a = L_a - #(T with a 1 in box (1, a_1)) >= L_a - L_{a-}.

    So equality holds when every T has a 1 in box (1, a_1), the leftmost
    cell of its row 1, that is when row 1 of T holds a 1 at all.  By shape:
    a row 1 of T without a 1 holds at most a_1 - 1 cells (the counts above
    with a-, summed), and row 1 of lam/a- has lam_1 - a_1 + 1 cells, so
    lam_1 >= 2 a_1 - 1 is enough.  This is the lemma behind
    ``skew.positivity_diff``, for one coefficient; summed over a when
    lam_1 >= 2p - 1, it is the paper's theorem.  By type, its twin: T holds
    nu_1 - a_1 + 1 1's.  No cell of lam/a- lies above a 1, so a column holds
    at most one 1, in its top cell, and columns a_1..lam_1 have their top
    cells in row 1; so at most a_1 - 1 1's lie outside row 1, and
    nu_1 >= 2 a_1 - 1 is enough too.

    Two counts of the type rule out a Kronecker tableau of lam/a with
    a_1 > a_2.  Condition (III) puts a_1 - a_2 2's in row 1, which has
    lam_1 - a_1 cells, and the type has nu_2 - a_2 2's, so it needs
    lam_1 - a_1 >= a_1 - a_2 and nu_2 >= a_1.  Condition (II) puts a 1 in
    box (2, a_1), so lam_2 >= a_1, and then in each cell (2, a_2 + 1..a_1)
    to its left, a_1 - a_2 of the type's nu_1 - a_1 1's.  Where neither is
    possible, K_a = 0.

    The L come from s_{lam/a} = sum over mu |- n-p of c^lam_{mu a} s_mu:
    L_a = sum over mu of c^lam_{mu a} c^nu_{mu a}, and mu lies inside
    lam & nu.  Unshifted walks of lam/mu and nu/mu, at most p cells each,
    give these numbers for every a at once; the mu of size n-p+1 give the
    L_b for b |- p-1, the L_{a-} among them, and both levels are always
    read.  Both levels come from the wider of (lam, nu) and (lam', nu'),
    as in the ``oracle`` docstring: L_a of (lam, nu) is L_{a'} of
    (lam', nu'), since the involution s_k -> s_k' is an isometry that maps
    s_a s_{lam/a} to s_{a'} s_{lam'/a'}, so a tall query reads its table
    under the keys a' and shares its walks with the wide queries.
    The walks are kept by row key in ``_lr_walk``, across levels, sides
    and queries; a query walks only the shapes no earlier query left
    there.  The coefficient is the sum of the table's top level minus the
    sum of its lower one: summed over a |- p, the L_a give <sum over a of
    s_a s_{lam/a}, s_nu>, the first half of the signed sum in the
    ``oracle`` docstring, and the L_b give its second half.  A negative
    result raises InvariantError, naming nu as asked.

    The bound reads each a in lam's frame without conjugating it: under a
    key a', a_1 = l(a'), a_2 is the number of parts of a' that are >= 2,
    and when a_1 > a_2 the last part of a' is 1 and a-' is a' without it.
    Kronecker tableaux are a-lattice SSYT, so K_a <= L_a, and an a with
    L_a = 0 adds nothing.  With L_a - L_{a-} <= K_a, an a with L_{a-} = 0
    has K_a = L_a.  An a that the type rules out adds nothing.  Only the a
    left, with a_1 > a_2, 2 a_1 - 1 > max(lam_1, nu_1), L_{a-} > 0 and a
    type that allows condition (II) or (III), walk their Kronecker tableaux
    of lam/a, on lam as asked, which have n - p cells.  On the rows route
    no a is left and the bound is the coefficient.  Nor is one left when
    nu_1 >= 2p - 1, and then too the bound is the coefficient: L_a is
    symmetric in lam and nu, so the sum read is, term by term, the paper's
    rule on nu/a with type lam/a, exact for g_{(n-p,p),nu,lam}, which is
    g_{(n-p,p),lam,nu}.
    """
    tall = len(lam) > part(lam, 1)
    wide, wide_nu = (conjugate(lam), conjugate(nu)) if tall else (lam, nu)
    top, below = _coeff_levels(wide, wide_nu, p)
    upper, lower = _lr_squares(wide, wide_nu, top), _lr_squares(wide, wide_nu, below)
    value = sum(upper.values()) - sum(lower.values())
    if value < 0:
        raise InvariantError(f"signed sum went negative at {nu}: {value}")
    bound = 0
    for key, count in upper.items():
        if tall:
            a1, a2 = len(key), len(key) - key.count(1)
        else:
            a1, a2 = part(key, 1), part(key, 2)
        if a1 == a2:
            bound += count
            continue
        less = lower.get(key[:-1] if tall else remove_box(key, 0), 0)
        if not less or max(lam[0], nu[0]) >= 2 * a1 - 1:
            bound += count - less
        elif (lam[0] - a1 >= a1 - a2 and part(nu, 2) >= a1) or (
            part(lam, 2) >= a1 and nu[0] - a1 >= a1 - a2
        ):
            alpha = conjugate(key) if tall else key
            bound += _count_fillings(lam, alpha, nu, alpha, True)
    return value, bound


def kron_upper_bound(p: int, lam: Partition, nu: Partition) -> int:
    """Sum of Kronecker tableau counts over alpha |- p inside lam and nu;
    an upper bound for g_{(n-p,p),lam,nu}, exact when lam_1 >= 2p-1: the
    ``upper_bound`` of ``kron_coeff`` with n = |lam|."""
    lam = check_partition(lam)
    return kron_coeff(sum(lam), p, lam, nu).upper_bound


RULE_MAX_CELLS = 500
"""Most cells the rule's full expansion walks.  Past this count the signed
sum, whose walks have at most p cells, is faster than the rule: on a 2-core
Xeon with Python 3.11, (1400, 20, (700, 700)) took 0.91-0.95 s by the rule
against 0.05-0.07 s by the signed sum, with the same answer.  It is not a
depth guard: the fill engine walks at any depth.  Moving it would change
output, since past it ``is_multiplicity_free`` takes its witness from the
signed sum."""


def kron_expand_tworow(n: int, p: int, lam: Partition) -> KronExpansion:
    """Full expansion of s_{(n-p,p)} * s_lam.

    Uses the tableau rule on lam when lam_1 >= 2p-1, on the conjugate when
    l(lam) >= 2p-1, and the signed-sum oracle otherwise, or when the rule
    would walk more than RULE_MAX_CELLS cells; the tag names the route.
    """
    (lam,) = check_tworow_args(n, p, lam)
    return _expand(n, p, lam)


def _expand(n: int, p: int, lam: Partition, cap: int | None = None) -> KronExpansion:
    """``kron_expand_tworow`` on a checked lam: the one place that chooses
    between the tableau rule and the signed sum.

    The rule's alpha |- p inside the shape go to ``tableaux._fill_alphas``
    together, which merges their fill states below their rows unless there
    is a cap.  With a cap, raise CapReached(nu) for the first nu whose
    coefficient reaches it, nu in lam's orientation.  On the rule's routes,
    when it walks, that is the first bucket to reach the cap in the rule's
    visiting order (``tableaux._fill_alphas``); from the signed sum it is
    the lex-largest nu with a coefficient of at least cap.
    """
    method, work = _route(p, lam)
    if method == METHOD_ORACLE or n - p > RULE_MAX_CELLS:
        expansion = oracle_tworow_signed_sum(n, p, lam)
        if cap is not None:
            for nu, c in expansion.items_desc():
                if c >= cap:
                    raise CapReached(nu)
        return KronExpansion(expansion, method)
    buckets: dict[Partition, int] = {}
    try:
        _fill_alphas(work, enumerate_partitions(p, inside=work), buckets, cap)
    except CapReached as hit:
        if method == METHOD_CONJUGATE:
            raise CapReached(conjugate(hit.nu)) from None
        raise
    if method == METHOD_CONJUGATE:
        buckets = {conjugate(nu): c for nu, c in buckets.items()}
    return KronExpansion(SchurExpansion(buckets), method)


KRON_COEFF_CACHE = 4096
"""Answers kept by ``kron_coeff``, the package's one memo of single
coefficients.  A repeated query then costs a lookup instead of a new
table, even one read from kept walks (``_lr_walk``), and the memory stays
bounded however many distinct queries a process makes."""


def kron_coeff(n: int, p: int, lam: Partition, nu: Partition) -> KronResult:
    """Single coefficient of s_nu in s_{(n-p,p)} * s_lam with its method tag
    and the tableau-count upper bound (the rule's sum on lam itself).  The
    value and the bound come from one ``_alpha_bound`` table on every route;
    the last KRON_COEFF_CACHE distinct answers are kept."""
    return _kron_coeff(n, p, *check_tworow_args(n, p, lam, nu))


@lru_cache(maxsize=KRON_COEFF_CACHE)
def _kron_coeff(n: int, p: int, lam: Partition, nu: Partition) -> KronResult:
    """``kron_coeff`` on checked arguments, memoised."""
    value, upper = _alpha_bound(lam, nu, p)
    return KronResult(value, _route(p, lam)[0], upper)


def _rule_coeff(n: int, p: int, lam: Partition, nu: Partition) -> KronResult:
    """``kron_coeff`` with the value counted by the tableau rule on its
    routes: the paper's theorem as the reference for the signed sum."""
    lam, nu = check_tworow_args(n, p, lam, nu)
    method, work = _route(p, lam)
    if method == METHOD_ORACLE:
        value = oracle_tworow_signed_coeff(n, p, lam, nu)
    else:
        work_nu = nu if method == METHOD_ROWS else conjugate(nu)
        value = _tableau_sum(work, work_nu, p)
    upper = value if method == METHOD_ROWS else _tableau_sum(lam, nu, p)
    return KronResult(value, method, upper)
