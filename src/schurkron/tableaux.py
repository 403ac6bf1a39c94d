"""Semistandard skew tableaux filtered by alpha-shifted lattice words.

One walk, ``_fill``, serves both uses of the engine.  It fills the cells in
reverse reading order (right to left within a row, top row first), which
makes the lattice condition a prefix property: a value v may be placed only
while #(v-1)'s + alpha_{v-1} stays >= #v's + alpha_v.  The running tallies
count[v] + alpha_v are kept in ``profile``, which therefore stays weakly
decreasing and, at a leaf, *is* the partition type + alpha; each leaf adds
to the bucket of that partition.  Expand mode (``_expand_fillings``) keeps
every bucket.  Count mode (``_count_fillings``) gives a target nu and adds
one limit: v may be placed only while profile[v] < nu_v.  The cells number
|nu| - |alpha|, so every leaf then has profile == nu and the count is the
sum of the buckets.

The walk sees the shape only as its cell list (``_cells``), built from the
shape's row key (``_row_key``); ``_key_cells`` says why the key names
exactly one list.

The walk is one loop that backtracks in place, so its depth is not bounded
by Python's recursion limit and it keeps no frame per cell.  Cell k's
cursor is vals[k], the value it holds.  On entering cell k the loop saves
the largest value the cell may take (the value of its right neighbour, or
vmax + 1, vmax being the largest value placed so far) and vmax itself; it
then places the smallest allowed value from the cell's floor up (one more
than the value in the cell above it) and moves to cell k + 1.  When a cell
has no value left, the loop steps back to cell k - 1, takes that cell's
value off the profile, restores the saved vmax and tries the cell's next
value.  So the fillings are visited in the same order as by a recursive
walk.

The walk merges equal fill states in layers.  The cells are cut at row
starts into layers of whole skew rows, by the rule of ``LAYER_CELLS``; the
cells above the top cut form the first layer.  How the cells below a cut
can be filled depends only on the values just above them, those of the row
above the cut over the next row's columns, on the profile and on the
limit, which is constant; so these values and the profile make the cut's
state, and the merge is exact in both modes.  The walk fills the first
layer once, and each later layer once per distinct state of the cut above
it.  A state carries a weight, the number of paths through the layers
above that reach it: the first layer reaches its states with weight 1, and
a layer filled from a state of weight w adds w to each state or bucket it
reaches, so every bucket still counts each tableau once.

The last cell is settled in one loop: the walk adds the weight to the bucket
of each allowed value in turn, the profile with that value placed.  The last
cell has no cell after it, so each allowed value is a leaf, and the loop
adds what a leaf per value would add, in the same order.

A shape with no cell below row 2 runs its Kronecker check at the leaf
(``_kron_setup``), so it is walked one tableau at a time, with no cut and
no last-cell loop.  A capped walk stops at the first bucket to reach the
cap, which depends on the visiting order, so it has no cut: it visits
every tableau one by one, and the last-cell loop adds one to each bucket in
that same order.

An expansion of the Kronecker rule walks lam/alpha for every alpha |- p
inside lam; ``_fill_alphas`` is its one alpha-loop, and says why merging
states across alpha, below the rows of alpha, is exact.
"""

from __future__ import annotations

import operator
from typing import Iterable, NamedTuple, Sequence

from .partitions import (
    DomainError,
    InvariantError,
    Partition,
    SkewShape,
    check_integers,
    check_partition,
    contains,
    part,
    skew_shape,
)


class Tableau(NamedTuple):
    """A filling of a skew shape; row r holds the entries of its skew cells."""

    shape: SkewShape
    rows: tuple[tuple[int, ...], ...]


def is_ssyt(t: Tableau) -> bool:
    """Rows weakly increase left to right, columns strictly increase down, and
    every entry is positive.  DomainError unless the shape is a skew shape
    and every entry an integer."""
    outer, inner = skew_shape(*t.shape)
    if len(t.rows) != len(outer):
        return False
    grid: dict[tuple[int, int], int] = {}
    for r, row in enumerate(t.rows):
        start = inner[r] if r < len(inner) else 0
        if len(row) != outer[r] - start:
            return False
        for off, v in enumerate(check_integers(row, "entries")):
            if v < 1:
                return False
            grid[(r, start + off)] = v
    for (r, c), v in grid.items():
        if (r, c + 1) in grid and grid[(r, c + 1)] < v:
            return False
        if (r - 1, c) in grid and grid[(r - 1, c)] >= v:
            return False
    return True


def reverse_reading_word(t: Tableau) -> tuple[int, ...]:
    """Entries read right to left along each row, top row first.
    DomainError unless the shape is a skew shape."""
    skew_shape(*t.shape)
    word: list[int] = []
    for row in t.rows:
        word.extend(reversed(row))
    return tuple(word)


def _letters(word: Iterable[int]) -> tuple[int, ...]:
    """The letters of word as ints; DomainError unless each one is a
    positive integer."""
    word = tuple(word)
    try:
        letters = tuple(map(operator.index, word))
    except TypeError:
        letters = (0,)  # refused below, like a letter below 1
    if any(v < 1 for v in letters):
        raise DomainError(f"letters must be positive integers, got {word!r}")
    return letters


def tableau_type(t: Tableau) -> tuple[int, ...]:
    """(t_1, t_2, ...) where t_i counts the entries equal to i.  DomainError
    unless the shape is a skew shape and every entry a positive integer."""
    skew_shape(*t.shape)
    counts: list[int] = []
    for row in t.rows:
        for v in _letters(row):
            while len(counts) < v:
                counts.append(0)
            counts[v - 1] += 1
    return tuple(counts)


def is_alpha_lattice(word: Sequence[int], alpha: Partition) -> bool:
    """True iff every prefix has #i's + alpha_i >= #(i+1)'s + alpha_{i+1}.
    DomainError unless every letter is a positive integer."""
    alpha = check_partition(alpha)
    word = _letters(word)
    width = max([len(alpha) + 1, *word]) + 1 if word else len(alpha) + 2
    profile = [len(word) + sum(alpha) + 1, *alpha] + [0] * (width - len(alpha))
    for v in word:
        if profile[v - 1] <= profile[v]:
            return False
        profile[v] += 1
    return True


def _row_key(outer: Partition, inner: Partition) -> tuple[tuple[int, ...], ...]:
    """The row key of outer/inner, which names one cell list
    (``_key_cells``): one tuple per non-empty row r, top to bottom, (length,)
    when no cell of the row has a cell above it, else (length, overlap,
    overhang): outer_r - inner_{r-1} of its cells have a cell above, and the
    row above reaches outer_{r-1} - outer_r past it.  No row or column
    number is kept, so an empty row or column adds nothing, and the row
    below an empty row has no cell above it."""
    key, depth = [], len(inner)
    above_start = above_end = outer[0] if outer else 0
    for r, end in enumerate(outer):
        start = inner[r] if r < depth else 0
        if end > above_start:
            key.append((end - start, end - above_start, above_end - end))
        elif end > start:
            key.append((end - start,))
        above_start, above_end = start, end
    return tuple(key)


def _key_cells(key: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, int], ...]:
    """The cell list of a row key: (above index, right index) per cell in
    reverse reading order, -1 where there is no such cell.  A row's cells,
    right to left, take consecutive indices from its base, and the i-th of
    them has the cell base_above + overhang + i above it while i < overlap.
    The list gives the key back (a cell with no right neighbour starts a
    row, the first cells with one above count the overlap, and the first
    of them the overhang), so equal keys are equal lists and no more.  A
    walk (``_fill``) reads nothing of a shape but its list, so the key names
    the walk exactly: equal keys walk alike."""
    cells: list[tuple[int, int]] = []
    above_base = 0
    for row in key:
        base = len(cells)
        length, overlap, overhang = row if len(row) == 3 else (row[0], 0, 0)
        first = above_base + overhang
        for i in range(length):
            cells.append((first + i if i < overlap else -1, base + i - 1 if i else -1))
        above_base = base
    return tuple(cells)


def _cells(outer: Partition, inner: Partition) -> tuple[tuple[int, int], ...]:
    """The cell list of outer/inner, read from its row key (``_row_key``)."""
    return _key_cells(_row_key(outer, inner))


def _kron_setup(outer: Partition, inner: Partition, alpha: Partition, kron: bool):
    """The Kronecker check of a walk of outer/inner shifted by alpha, as
    (check_at, slot2, gap, row1), from the row lengths alone.

    With kron false, or alpha_1 == alpha_2 (condition (I): every filling
    qualifies), there is no check: (-1, -1, 0, 0).  Otherwise a filling must
    have a 1 in box (2, alpha_1), cell slot2, or exactly gap 2's in row 1,
    whose row1 cells come first in the fill order; both facts are settled
    once rows 1 and 2 are filled, so the check runs at cell check_at, the
    first of row 3 (or at the leaf for shorter shapes).
    """
    a1, a2 = part(alpha, 1), part(alpha, 2)
    if not kron or a1 == a2:
        return -1, -1, 0, 0
    row1 = part(outer, 1) - part(inner, 1)
    # box (2, alpha_1) follows row 1's cells, outer_2 - alpha_1 cells into row 2
    slot2 = row1 + part(outer, 2) - a1 if part(inner, 2) < a1 <= part(outer, 2) else -1
    return row1 + part(outer, 2) - part(inner, 2), slot2, a1 - a2, row1


LAYER_CELLS = 3
"""The layer rule: read from the bottom up, the cells are cut at row starts,
at or after the Kronecker check, and each layer below a cut holds at least
LAYER_CELLS cells, counted down to the next cut or to the end, and each cut
has a cell above it.  The check (rows 1 and 2 settled) must run before the
first cut, so no cut lies above the first cell of row 3.  A state costs a
key, and a layer of one or two cells rarely saves what its states cost.
``_fill`` and ``_joins`` cut by this one rule."""


class CapReached(Exception):
    """Raised by ``_fill`` when a bucket hits the requested cap."""

    def __init__(self, nu: Partition):
        super().__init__(nu)
        self.nu = nu


def _fill(
    cells: tuple[tuple[int, int], ...],
    alpha: Partition,
    check: tuple[int, int, int, int] = (-1, -1, 0, 0),
    target: Partition | None = None,
    out: dict | None = None,
    cap: int | None = None,
    start: tuple[int, dict] | None = None,
    stop: int = -1,
) -> dict:
    """The fill engine: accumulate {type + alpha: count} into ``out`` over
    the alpha-lattice SSYT of the shape whose cell list is ``cells``
    (Kronecker tableaux only under a ``_kron_setup`` check), only of type
    target - alpha when a target is given.  It reads the shape from the
    list alone (``_key_cells``).

    One walk down the cells finds the layers' ends (see the module
    docstring).  ``walk`` fills the first layer from the empty filling and
    records {state: weight} at its end; each later layer restores every
    state of the one above, the row above's values and the profile, and
    walks from it with its weight, recording the next layer's states, until
    the bottom layer ends at the last cell, whose allowed values go straight
    to the buckets.  Without a cut the first layer is the whole walk.

    Two more arguments let one walk run over part of its layers.  With
    ``stop``, the index of a cut, the walk ends there and adds that cut's
    states into ``out``, keyed as at any other cut.  With ``start`` =
    (k, {state: weight}), k a cut, the walk skips its layers above k and
    walks on from those states, which must have passed the Kronecker check
    (it runs at or above every cut)."""
    ncells = len(cells)
    profile = [ncells + sum(alpha) + 1, *alpha] + [0] * (ncells + 1)
    # profile[v] must stay below limit[v]: target_v, or out of reach
    if target is None:
        limit = [profile[0]] * len(profile)
    else:
        limit = ([0, *target] + [0] * len(profile))[: len(profile)]
    vals = [0] * ncells
    buckets = {} if out is None else out
    check_at, slot2, gap, row1 = check
    # the last cell's values go straight to the buckets, unless the Kronecker
    # check runs at the leaf
    last = ncells - 1 if ncells and check_at < ncells else ncells
    # (end, lo) of each layer, the lowest first: a layer ends at a row start
    # at or after the check, with at least LAYER_CELLS cells after it before
    # the next cut or the end; its states read vals[lo:end], the row above
    # over the next row's columns: as inner is a partition, these are that
    # row's last cells
    cuts = [(last, last)]
    if cap is None:
        below = ncells
        for k in range(ncells - LAYER_CELLS, max(check_at, 1) - 1, -1):
            if below - k >= LAYER_CELLS and cells[k][1] < 0:
                above = cells[k][0]
                cuts.append((k, above if above >= 0 else k))
                below = k
    if stop >= 0:  # end at the stop: drop the cuts below it
        cuts = [cut for cut in cuts if cut[0] <= stop]
        if not cuts or cuts[0][0] != stop:
            raise InvariantError(f"no cut before cell {stop}")
    his = [0] * ncells  # the largest value cell k may take
    vmaxs = [0] * ncells  # vmax on entry to cell k

    def walk(k: int, end: int, vmax: int, weight: int) -> None:
        """Visit the fillings of cells k..end-1 that extend the current vals
        and profile, backing up in place.  Each one reached adds weight to
        its state at a layer's end, or to its buckets: at the last cell once
        per allowed value, at a leaf once."""
        start = k
        while True:
            # enter cell k: a dead end, a layer's end, or values to try
            if k == check_at and not (
                (slot2 >= 0 and vals[slot2] == 1) or vals[:row1].count(2) == gap
            ):
                v = hi = 0
            elif k == end:
                v = hi = 0
                if k < last:
                    key = (tuple(vals[lo:k]), tuple(profile[1 : vmax + 1]))
                    states[key] = states.get(key, 0) + weight
                elif k < ncells:
                    above, right = cells[k]
                    u = vals[above] if above >= 0 else 0
                    top = vals[right] if right >= 0 else vmax + 1
                    while u < top:
                        u += 1
                        pu = profile[u]
                        if profile[u - 1] > pu and pu < limit[u]:
                            profile[u] = pu + 1
                            nu = tuple(profile[1 : (u if u > vmax else vmax) + 1])
                            profile[u] = pu
                            c = buckets.get(nu, 0) + weight
                            buckets[nu] = c
                            if cap is not None and c >= cap:
                                raise CapReached(nu)
                else:
                    nu = tuple(profile[1 : vmax + 1])
                    c = buckets.get(nu, 0) + weight
                    buckets[nu] = c
                    if cap is not None and c >= cap:
                        raise CapReached(nu)
            else:
                above, right = cells[k]
                v = vals[above] if above >= 0 else 0
                hi = his[k] = vals[right] if right >= 0 else vmax + 1
                vmaxs[k] = vmax
            # place the next value above v at cell k; when none is left, take
            # the value of cell k - 1 off the profile and try its next one
            while True:
                while v < hi:
                    v += 1
                    pv = profile[v]
                    if profile[v - 1] > pv and pv < limit[v]:
                        break
                else:
                    if k == start:
                        return
                    k -= 1
                    v = vals[k]
                    profile[v] -= 1
                    vmax = vmaxs[k]
                    hi = his[k]
                    continue
                break
            profile[v] = pv + 1
            vals[k] = v
            if v > vmax:  # the lattice test allows v = vmax + 1 at most
                vmax = v
            k += 1

    if start is None:
        end, lo = cuts.pop()
        states = {} if cuts else buckets
        walk(0, end, len(alpha), 1)
    else:
        end, states = start
        while cuts[-1][0] < end:
            cuts.pop()
        at, lo = cuts.pop()
        if at != end:
            raise InvariantError(f"no cut before cell {end}")
    check_at = -1  # the check ran in the first layer, or above the start
    width = len(profile) - 1
    while cuts:
        at, at_lo, layer = end, lo, states
        end, lo = cuts.pop()
        states = {} if cuts else buckets
        for (above_vals, prof), weight in layer.items():
            vals[at_lo:at] = above_vals
            profile[1:] = prof + (0,) * (width - len(prof))
            walk(at, end, len(prof), weight)
    return buckets


def _joins(
    outer: Partition, alphas: list[Partition]
) -> tuple[list[Partition], dict[int, list[Partition]]]:
    """(alone, joins) for ``_fill_alphas``: the alphas that walk alone, and
    {row: the alphas that join the walk of outer/() at that row's start},
    rows numbered from 0.

    A shared cut is a cut of the walk of outer/() at a row start at or
    below row 3; ``_fill`` cuts by the rule of ``LAYER_CELLS``, bottom-up
    from the row lengths, so every walk of outer/alpha makes the same cuts
    in its rows below alpha.  Each alpha arrives at its first shared cut
    below its rows.  At a cut two alphas rarely share a state, as their
    profiles differ by the alphas; the states carried through a shared
    layer meet far more often.  So the walk of outer/() begins where a
    second alpha arrives, if another alpha arrives lower down, and not at
    all otherwise; the alphas arriving above the beginning join there.  This
    needs three alphas and two shared cuts, so rows 3 and 4."""
    if len(alphas) < 3 or len(outer) < 4:
        return alphas, {}
    # the rows of the shared cuts, the highest first, by the rule of LAYER_CELLS
    shared, below = [], 0
    for r in range(len(outer) - 1, 1, -1):
        below += outer[r]
        if below >= LAYER_CELLS:
            shared.insert(0, r)
            below = 0
    # the highest shared row at or below each alpha's rows: the last one
    # written, as the rows are read lowest first
    arrivals = {alpha: r for alpha in alphas for r in reversed(shared) if r >= len(alpha)}
    order = sorted(arrivals.values())
    # no join without three arrivals at two shared rows at least
    if len(order) < 3 or order[1] == order[-1]:
        return alphas, {}
    joins: dict[int, list[Partition]] = {}
    for alpha, r in arrivals.items():
        joins.setdefault(max(r, order[1]), []).append(alpha)
    return [alpha for alpha in alphas if alpha not in arrivals], joins


def _fill_alphas(
    outer: Partition, alphas: Iterable[Partition], out: dict, cap: int | None = None
) -> dict:
    """Accumulate {nu: count} into ``out`` over the Kronecker tableaux of
    outer/alpha, of type nu - alpha, for every alpha in alphas (each inside
    outer, all of one size): the rule's expansion.  With a cap, CapReached
    is raised as soon as a bucket reaches it, as by ``_expand_fillings``.

    Without a cap, fill states are merged across alpha below the rows of
    alpha.  Each alpha that joins (``_joins``) walks its own layers down to
    its join, a cut at a row start, and adds its states into the live dict
    there; one walk of outer/() carries the live dict from each join to the
    next, where it becomes the next live dict, and from the last one on to
    the buckets.  The other alphas walk alone, through ``_expand_fillings``.
    An alpha's key at its join reads the row above over those columns of
    the row below that have a cell above, and the walk of outer/() reads it
    over all of them; so each key gets a 0 for every other column, those
    inside alpha, min(alpha_above, outer_below) of them.  The merge is then
    exact.  Each cell list of outer/alpha has |outer| - |alpha| cells, so
    below the rows of alpha every list has the same cells at the same
    indices, which are those of outer/() less |alpha|, and the same cuts
    there.  A cell under a column of alpha has floor 0 in the walk of
    outer/alpha (no cell above) and in the walk of outer/() (a 0 above).
    And how the cells below the cut can be filled, and which bucket each
    filling reaches, depend on the key alone: the profile carries alpha, and
    the limit is out of reach in expand mode.  So each alpha's states reach
    the same buckets with the same weights as in its own walk.

    A capped walk stops at the first bucket to reach the cap, which the
    merge would move, so with a cap no alpha joins and each walks alone, in
    the order given: for the rule, alpha in descending lex order, fillings
    in reverse reading order."""
    alone, joins = _joins(outer, list(alphas)) if cap is None else (alphas, {})
    for alpha in alone:
        _expand_fillings(outer, alpha, alpha, True, out, cap)
    if not joins:
        return out
    full = _cells(outer, ())
    live, at = {}, None
    for row in sorted(joins):
        k = sum(outer[:row])
        if at is not None:
            live = _fill(full, (), start=(at, live), stop=k, out={})
        for alpha in joins[row]:
            check = _kron_setup(outer, alpha, alpha, True)
            states = _fill(_cells(outer, alpha), alpha, check, stop=k - sum(alpha))
            pad = (0,) * min(part(alpha, row), outer[row])
            while states:  # popped, so each key is freed as its padded copy goes in
                (above, profile), weight = states.popitem()
                live[above + pad, profile] = live.get((above + pad, profile), 0) + weight
        at = k
    return _fill(full, (), start=(at, live), out=out)


def _count_fillings(
    outer: Partition, inner: Partition, nu: Partition, alpha: Partition, kron: bool
) -> int:
    """Number of alpha-lattice SSYT of shape outer/inner and type nu - alpha
    (Kronecker tableaux only when kron=True).  nu must contain alpha row by
    row but need not be a partition.  Uncached: a repeated single Kronecker
    coefficient is answered by the memo of ``kronecker.kron_coeff``."""
    if sum(nu) != sum(outer) - sum(inner) + sum(alpha):
        return 0
    check = _kron_setup(outer, inner, alpha, kron)
    return sum(_fill(_cells(outer, inner), alpha, check, nu).values())


def _expand_fillings(
    outer: Partition,
    inner: Partition,
    alpha: Partition,
    kron: bool,
    out: dict | None = None,
    cap: int | None = None,
) -> dict[Partition, int]:
    """Accumulate {nu: count} into ``out`` over all alpha-lattice SSYT of the
    skew shape, nu being a filling's type plus alpha (Kronecker tableaux only
    when kron=True).  If cap is given, CapReached is raised as soon as any
    bucket reaches it, with the fillings visited one by one in reverse
    reading order."""
    check = _kron_setup(outer, inner, alpha, kron)
    return _fill(_cells(outer, inner), alpha, check, None, out, cap)


def _normalize_counts(counts: Iterable[int]) -> tuple[int, ...]:
    c = check_integers(counts, "type counts")
    while c and c[-1] == 0:
        c = c[:-1]
    if any(x < 0 for x in c):
        raise DomainError(f"negative multiplicity in type {c!r}")
    return c


def count_ssyt_alpha_lattice(
    shape: SkewShape, type_counts: Iterable[int], alpha: Partition
) -> int:
    """Number of SSYT of the shape and type whose reverse reading word is an
    alpha-lattice permutation; alpha = () gives plain lattice filtering."""
    shape = skew_shape(*shape)
    alpha = check_partition(alpha)
    counts = _normalize_counts(type_counts)
    if sum(counts) != shape.size:
        raise DomainError(
            f"type weighs {sum(counts)}, shape has {shape.size} cells"
        )
    width = max(len(counts), len(alpha))
    nu = tuple(part(counts, i) + part(alpha, i) for i in range(1, width + 1))
    return _count_fillings(shape.outer, shape.inner, nu, alpha, False)


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient c^lam_{mu nu}: the lattice fillings
    of lam/mu of type nu, or of lam/nu of type mu (c^lam_{mu nu} =
    c^lam_{nu mu}), whichever shape has fewer cells."""
    lam, mu, nu = (check_partition(shape) for shape in (lam, mu, nu))
    if sum(lam) != sum(mu) + sum(nu) or not (contains(mu, lam) and contains(nu, lam)):
        return 0
    if sum(mu) < sum(nu):
        mu, nu = nu, mu
    return _count_fillings(lam, mu, nu, (), False)
