"""Closed formulas and multiplicity-freeness classifications for the
products s_{(n-p,p)} * s_lam.

Every formula here hard-errors outside its proven domain instead of
extrapolating, and refuses a scalar argument that is not an integer;
callers that want an answer anyway should fall back to ``kron_coeff``.
Floor and ceiling of possibly negative halves/thirds are exact integer
operations throughout.
"""

from __future__ import annotations

from typing import NamedTuple

from .expansion import SchurExpansion
from .kronecker import _expand, kron_coeff
from .partitions import (
    DomainError,
    Partition,
    addable_rows,
    add_box,
    check_integers,
    check_partition,
    check_tworow_args,
    intersect,
    part,
    removable_rows,
    remove_box,
)
from .tableaux import CapReached


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def descent_count(lam: Partition) -> int:
    """C(lam): rows i < l(lam) with lam_i > lam_{i+1}."""
    lam = check_partition(lam)
    return sum(1 for i in range(len(lam) - 1) if lam[i] > lam[i + 1])


def p1_expand(lam: Partition) -> SchurExpansion:
    """s_{(n-1,1)} * s_lam: C(lam) copies of lam plus one copy of every other
    partition reachable by removing a box and adding a box."""
    lam = check_partition(lam)
    if sum(lam) < 2:
        raise DomainError("need |lam| >= 2")
    acc: dict[Partition, int] = {}
    for r in removable_rows(lam):
        smaller = remove_box(lam, r)
        for a in addable_rows(smaller):
            mu = add_box(smaller, a)
            acc[mu] = acc.get(mu, 0) + 1
    acc[lam] = acc.get(lam, 0) - 1
    return SchurExpansion(acc)


class MfreeVerdict(NamedTuple):
    multiplicity_free: bool
    source: str
    witness: tuple[Partition, int] | None = None


def _hook_of(n: int, tail: int) -> Partition:
    return (n - tail,) + (1,) * tail


def _direct_mfree(n: int, p: int, lam: Partition) -> tuple[bool, tuple | None]:
    """Decide by expanding, stopping as soon as some coefficient reaches 2;
    the witness's coefficient is then computed exactly."""
    try:
        _expand(n, p, lam, cap=2)
    except CapReached as hit:
        return False, (hit.nu, kron_coeff(n, p, lam, hit.nu).value)
    return True, None


def is_multiplicity_free(n: int, p: int, lam: Partition) -> MfreeVerdict:
    """Is s_{(n-p,p)} * s_lam multiplicity free?

    Answered from the classification lists on their proven domains (p=1 any
    n; p=2 for n>=6; p=3 for n>16; p>=4 for n>(2p-2)^2) and by direct
    computation elsewhere, attaching a witness (nu, coefficient) when the
    answer is no.  Where the tableau rule walks, the witness is the first nu
    whose count reaches 2 in the rule's visiting order; where the expansion
    comes from the signed sum (off the rule's routes, or past the rule's
    depth limit, see ``kron_expand_tworow``), it is the lex-largest nu with
    coefficient at least 2.
    """
    (lam,) = check_tworow_args(n, p, lam)
    if p < 1:
        raise DomainError(f"need 1 <= p <= n/2, got p={p}, n={n}")
    if p == 1:
        # free iff lam has at most two distinct part sizes
        return MfreeVerdict(len(set(lam)) <= 2, "prop_p1")
    basic = lam in ((n,), (1,) * n, (n - 1, 1), _hook_of(n, n - 2))
    rectangle = len(set(lam)) == 1
    if p == 2 and n >= 6:
        return MfreeVerdict(basic or rectangle, "thm_p2")
    if p == 3 and n > 16:
        half = n % 2 == 0 and lam in ((n // 2, n // 2), (2,) * (n // 2))
        return MfreeVerdict(basic or half, "thm_p3")
    if p >= 4 and n > (2 * p - 2) ** 2:
        return MfreeVerdict(basic, "thm_p4plus")
    free, witness = _direct_mfree(n, p, lam)
    return MfreeVerdict(free, "direct_computation", witness)


def rect_p2_expand(m: int, k: int) -> SchurExpansion:
    """s_{(n-2,2)} * s_{(m^k)} for n = mk >= 6 and m >= k.

    k = 1 is the identity s_lam = s_{(n)}; for k >= 2 the expansion is the
    fixed nine-term list, with the terms guarded by k >= 3, k >= 4 and
    m >= 4 dropped when the guard fails.  Every coefficient is 1.
    """
    check_integers((m, k), "m and k")
    if m < 1 or k < 1:
        raise DomainError(f"need m >= 1 and k >= 1, got m={m}, k={k}")
    n = m * k
    if n < 6:
        raise DomainError(f"need mk >= 6, got {m}*{k}={n}")
    if k == 1:
        return SchurExpansion({(n - 2, 2): 1})
    if m < k:
        raise DomainError(
            f"formula requires m >= k (got m={m} < k={k}); conjugate instead"
        )

    def norm(parts: tuple[int, ...]) -> Partition:
        return tuple(x for x in parts if x)

    terms = [
        norm((m,) * k),
        norm((m,) * (k - 1) + (m - 1, 1)),
        norm((m,) * (k - 2) + (m - 1, m - 1, 1, 1)),
        norm((m + 2,) + (m,) * (k - 2) + (m - 2,)),
        norm((m + 1,) + (m,) * (k - 2) + (m - 2, 1)),
    ]
    if k >= 4:
        terms.append(norm((m + 1, m + 1) + (m,) * (k - 4) + (m - 1, m - 1)))
    if k >= 3:
        terms.append(norm((m + 1,) + (m,) * (k - 2) + (m - 1,)))
        terms.append(norm((m + 1,) + (m,) * (k - 3) + (m - 1, m - 1, 1)))
    if m >= 4:
        terms.append(norm((m,) * (k - 1) + (m - 2, 2)))
    acc: dict[Partition, int] = {}
    for t in terms:
        acc[t] = acc.get(t, 0) + 1
    return SchurExpansion(acc)


def _parse_double_hook(nu: Partition) -> tuple[int, int, int, int] | None:
    """Split nu as (nu1, nu2, 2^i, 1^j); None if some later part exceeds 2."""
    nu1, nu2 = part(nu, 1), part(nu, 2)
    tail = nu[2:]
    if any(x > 2 for x in tail):
        return None
    i = sum(1 for x in tail if x == 2)
    j = sum(1 for x in tail if x == 1)
    return nu1, nu2, i, j


def hook_coeff(n: int, p: int, s: int, nu: Partition) -> int:
    """Coefficient of s_nu in s_{(n-p,p)} * s_{(n-s,1^s)} for n-s >= 2p-1.

    Nonzero values occur only at hooks and double hooks; the case table keys
    on nu_2 against p and on nu_1 within its four-wide window.
    """
    check_integers((n, p, s), "n, p and s")
    nu = check_partition(nu, n)
    if not 1 <= s <= n - 1:
        raise DomainError(f"need 1 <= s <= n-1, got s={s}")
    if p < 1:
        raise DomainError(f"need p >= 1, got p={p}")
    if n - s < 2 * p - 1:
        raise DomainError(f"need n-s >= 2p-1, got n-s={n - s}, p={p}")
    if p == 1:
        # p1_expand's rule at one nu: a box moved from a corner to a free
        # cell, so #corners - 1 at the hook itself and 1 at one box away
        hook = _hook_of(n, s)
        if nu == hook:
            return len(removable_rows(hook)) - 1
        return int(sum(intersect(hook, nu)) == n - 1)

    parsed = _parse_double_hook(nu)
    if parsed is None:
        return 0
    nu1, nu2, i, _ = parsed

    if nu2 <= 1:
        # hooks; a leftover 2 in the tail is impossible when nu2 <= 1
        if nu1 == n - s:
            if s >= p:
                return 2
            return 1 if s == p - 1 else 0
        if nu1 == n - s - 1:
            return 1 if s >= p - 1 else 0
        if nu1 == n - s + 1:
            return 1 if s >= p else 0
        return 0

    if nu2 <= p - 1:
        d = nu1 - (n - s - nu2)
        if d == 0:
            return int(i <= min(s - p + nu2, p - nu2))
        if d == 1:
            return (
                int(i <= min(s - p + nu2, p - nu2 - 1))
                + int(i <= min(s - p + nu2 - 1, p - nu2))
                + int(i <= min(s - p + nu2 - 2, p - nu2 + 1))
            )
        if d == 2:
            return (
                int(i <= min(s - p + nu2 - 1, p - nu2 - 1))
                + int(i <= min(s - p + nu2 - 2, p - nu2))
                + int(i <= min(s - p + nu2 - 3, p - nu2 + 1))
            )
        if d == 3:
            return int(i <= min(s - p + nu2 - 3, p - nu2))
        return 0

    if nu2 == p:
        d = nu1 - (n - s - p)
        if d == 0:
            return 1 if n - s >= 2 * p and i == 0 else 0
        if d == 1:
            if n - s >= 2 * p and i == 0 and s >= 2:
                return 2
            if (
                (n - s >= 2 * p and i == 0 and s == 1)
                or (n - s == 2 * p - 1 and i == 0 and s >= 2)
                or (i == 1 and s >= 3)
            ):
                return 1
            return 0
        if d == 2:
            if s >= 3 and i == 0:
                return 2
            if (s == 2 and i == 0) or (s >= 4 and i == 1):
                return 1
            return 0
        if d == 3:
            return 1 if s >= 3 and i == 0 else 0
        return 0

    if nu2 == p + 1:
        d = nu1 - (n - s - p)
        if d == 0:
            return 1 if n - s >= 2 * p and i == 0 and s >= 1 else 0
        if d == 1:
            return 1 if n - s >= 2 * p and i == 0 and s >= 2 else 0
        return 0

    return 0  # nu2 > p + 1


def tworow_target_coeff(n: int, p: int, lam: Partition, t: int) -> int:
    """Coefficient of s_{(n-t,t)} in s_{(n-p,p)} * s_lam for lam_1 >= 2p-1.

    Zero when lam has more than four rows; otherwise an indicator a_p plus
    two window sums over the second row length l of alpha = (p-l,l).
    """
    check_integers((n, p, t), "n, p and t")
    lam = check_partition(lam, n)
    if not 1 <= p <= n // 2:
        raise DomainError(f"need 1 <= p <= n/2, got p={p}, n={n}")
    if not 0 <= t <= n // 2:
        raise DomainError(f"need 0 <= t <= n/2, got t={t}")
    if part(lam, 1) < 2 * p - 1:
        raise DomainError(f"need lam_1 >= 2p-1, got {part(lam, 1)} < {2 * p - 1}")
    if len(lam) > 4:
        return 0
    l1, l2, l3, l4 = (part(lam, i) for i in (1, 2, 3, 4))

    total = int(
        p % 2 == 0
        and l3 <= p // 2 <= min(t, l2)
        and l2 + l4 <= t <= min(l2 + l3, l1 + l4)
    )
    top = min((p + 1) // 2 - 1, t, l2, p - l3)

    for l in range(max(l4, p - l2), top + 1):
        if not (l2 - p + 2 * l + max(0, l3 - l) + l4 <= t <= l2 + l3 - 1):
            continue
        m_l = min(
            l1 - l2,
            t - l2 + p - 2 * l - max(0, l3 - l) - l4,
            p - 2 * l - 1,
            l1 + l4 + p - 2 * l - t,
        )
        cap_l = max(0, t - l2 + p - 2 * l - l3)
        total += max(0, m_l - cap_l + 1)

    for l in range(l4, top + 1):
        if l1 - max(p - l, l2) < p - 2 * l:
            continue
        lo = p - l + max(0, l2 - p + l) + max(0, l3 - l) + l4
        hi = l2 + l3 + p - 2 * l - max(0, l3 - l)
        if not lo <= t <= hi:
            continue
        m_l = min(
            l2 - max(l, l3),
            t - p + l - max(0, l3 - l) - l4,
            l1 - 2 * p + 3 * l,
            l4 - t + l1 - p + l + l2,
        )
        cap_l = max(0, t - p + l - l3, l2 - p + l)
        total += max(0, m_l - cap_l + 1)
    return total


def tworow_tworow_coeff(n: int, p: int, s: int, t: int) -> int:
    """Coefficient of s_{(n-t,t)} in s_{(n-p,p)} * s_{(n-s,s)}."""
    check_integers((n, p, s, t), "n, p, s and t")
    if not 1 <= p <= n // 2:
        raise DomainError(f"need 1 <= p <= n/2, got p={p}, n={n}")
    if not 0 <= s <= n // 2:
        raise DomainError(f"need 0 <= s <= n/2, got s={s}")
    if not 0 <= t <= n // 2:
        raise DomainError(f"need 0 <= t <= n/2, got t={t}")
    if n - s < 2 * p - 1:
        raise DomainError(f"need n-s >= 2p-1, got n-s={n - s}, p={p}")
    if t < s:
        m1 = min(t, (t - s + p) // 2)
        cap1 = max(0, p - s, _ceil_div(t + s + p - n, 2))
        return max(0, m1 - cap1 + 1)
    if t == s:
        m2 = min(s, (p + 1) // 2 - 1)
        cap2 = max(0, p - s, _ceil_div(2 * s + p - n, 2))
        bonus = int(p % 2 == 0 and p // 2 <= s)
        return max(0, m2 - cap2 + 1) + bonus
    m3 = min(s, (p + s - t) // 2)
    cap3 = max(0, p - s, _ceil_div(t + s + p - n, 2))
    # second term covers alpha = (p-l,l) with l strictly below p-s, hence the
    # cap at p-s-1
    m4 = min(s, p - s - 1, (p + s - t) // 2)
    cap4 = max(
        0,
        p - t,
        _ceil_div(t + s + p - n, 2),
        _ceil_div(2 * p + s - n, 3),
    )
    return max(0, m3 - cap3 + 1) + max(0, m4 - cap4 + 1)


class SequenceEntry(NamedTuple):
    t: int
    value: int
    source: str  # "corollary" when n-t >= 2s-1 held, else "direct"


class TworowSequence(NamedTuple):
    entries: list[SequenceEntry]
    unimodal: bool


def _is_unimodal(values: list[int]) -> bool:
    decreased = False
    for prev, nxt in zip(values, values[1:]):
        if nxt < prev:
            decreased = True
        elif nxt > prev and decreased:
            return False
    return True


def tworow_tworow_sequence(n: int, p: int, s: int) -> TworowSequence:
    """Coefficients of s_{(n-t,t)} in s_{(n-p,p)} * s_{(n-s,s)} for
    t = s-p .. s+p.

    Each entry uses the closed formula where its hypothesis n-t >= 2s-1
    holds and falls back to ``kron_coeff`` elsewhere; t beyond n/2 indexes
    no partition and contributes 0.
    """
    check_integers((n, p, s), "n, p and s")
    if p < 1 or p > s - 1:
        raise DomainError(f"need 1 <= p <= s-1, got p={p}, s={s}")
    if n - s < 2 * p - 1:
        raise DomainError(f"need n-s >= 2p-1, got n-s={n - s}, p={p}")
    if n - p < 2 * s - 1:
        raise DomainError(f"need n-p >= 2s-1, got n-p={n - p}, s={s}")
    entries: list[SequenceEntry] = []
    for t in range(s - p, s + p + 1):
        if n - t >= 2 * s - 1:
            entries.append(
                SequenceEntry(t, tworow_tworow_coeff(n, p, s, t), "corollary")
            )
        elif 2 * t <= n:
            value = kron_coeff(n, p, (n - s, s), (n - t, t)).value
            entries.append(SequenceEntry(t, value, "direct"))
        else:
            entries.append(SequenceEntry(t, 0, "direct"))
    return TworowSequence(entries, _is_unimodal([e.value for e in entries]))


def nu_double_pair_coeff(n: int, p: int, s: int, nu: Partition) -> int:
    """Coefficient of s_nu in s_{(n-p,p)} * s_{(n-s,s)} for four-row nu with
    nu_3 == nu_4 >= 1; identically 0 when p <= 1."""
    check_integers((n, p, s), "n, p and s")
    nu = check_partition(nu, n)
    if len(nu) != 4 or nu[2] != nu[3]:
        raise DomainError(f"nu must be (nu1,nu2,nu3,nu3) with nu3 >= 1: {nu}")
    if s < 1:
        raise DomainError(f"need s >= 1, got s={s}")
    if p < 0 or 2 * p > n or 2 * s > n:
        raise DomainError(f"need 2p <= n and 2s <= n, got p={p}, s={s}, n={n}")
    if n - s < 2 * p - 1:
        raise DomainError(f"need n-s >= 2p-1, got n-s={n - s}, p={p}")
    nu1, nu2, nu3 = nu[0], nu[1], nu[2]
    cap1 = max(
        p - nu1,
        nu3,
        p - s + nu3,
        _ceil_div(2 * p - nu1, 3),
        _ceil_div(p + s - nu3 - nu1, 2),
    )
    m1 = min((p + 1) // 2 - 1, nu2, s - nu3, (nu2 + nu3 + p - s) // 2)
    # the lattice condition across the second row's run of 2's needs
    # l >= (p+s-nu3-nu1)/2, the same bound that appears in cap1
    cap2 = max(
        nu3,
        p - nu2,
        _ceil_div(p + 2 * s - n, 2),
        _ceil_div(p + s - nu3 - nu1, 2),
    )
    m2 = min((p + 1) // 2 - 1, nu2, s - nu3, (s + p - nu2 - nu3) // 2)
    total = int(p % 2 == 0 and nu2 + nu3 == s and nu3 <= p // 2 <= nu2)
    if nu2 + nu3 >= s:
        total += max(0, m2 - cap2 + 1)
    if nu2 + nu3 <= s - 1:
        total += max(0, m1 - cap1 + 1)
    return total
