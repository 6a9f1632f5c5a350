"""Sparse exact Gaussian elimination over a coefficient field.

Vectors are dicts mapping comparable keys (words, pairs of words) to nonzero
raw scalars.  The pivot of a vector is its minimal key, so families whose
minimal keys are distinct eliminate with no arithmetic at all.

Over the guard ring Z/(p1 p2) (scalars.PairField) working rows reduce
through axpy_unchecked, so their fill-in may be zero at one prime only, and
so may the entries of the columns nichols hands to kernel, which it fills
the same way.  That is exact: a lead is acted on only through inv, which
signals a split on a non-unit, so leads, pivots and ranks are each prime's.
rref, and so kernel, checks its result; contains answers only on a unit
lead.
"""

from __future__ import annotations


class Eliminator:
    """Incremental row space with unit-normalized pivots (not fully reduced)."""

    def __init__(self, field):
        self.field = field
        self.pivots: dict = {}  # lead key -> row dict with coefficient 1 at lead

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _sweep(self, vec: dict) -> dict:
        """Reduce vec against current pivots until its lead is fresh or it dies."""
        while vec:
            lead = min(vec)
            row = self.pivots.get(lead)
            if row is None:
                return vec
            self.field.axpy_unchecked(vec, row, -vec[lead])
        return vec

    def insert(self, vec: dict) -> bool:
        """Add a vector to the span; True iff the rank grew.

        The input dict is consumed (mutated); pass a copy to keep it.
        """
        vec = self._sweep(vec)
        if not vec:
            return False
        lead = min(vec)
        inv = self.field.inv(vec[lead])
        if inv != self.field.one:
            for k in vec:
                vec[k] = self.field.mul(vec[k], inv)
        self.pivots[lead] = vec
        return True

    def contains(self, vec: dict) -> bool:
        """Membership test; does not change the span.  Consumes the dict."""
        vec = self._sweep(vec)
        if vec:
            self.field.check_unsplit((vec[min(vec)],))
        return not vec


def rref(field, rows) -> dict:
    """Fully reduced pivot map: each pivot row is zero at all other pivots.

    Returns {lead key: row dict}; rows are inserted in the given order.  Back
    substitution reduces each pivot row, in descending lead order, modulo the
    rows already reduced.
    """
    elim = Eliminator(field)
    for r in rows:
        elim.insert(dict(r))
    pivots = elim.pivots
    done: dict = {}
    for lead in sorted(pivots, reverse=True):
        done[lead] = pivots[lead] = reduce_mod(field, pivots[lead], done)
    field.check_unsplit(v for row in pivots.values() for v in row.values())
    return pivots


def reduce_mod(field, vec: dict, pivots: dict) -> dict:
    """Residual of vec modulo an rref pivot map (single pass; needs full rref)."""
    vec = dict(vec)
    for lead in [k for k in vec if k in pivots]:
        field.axpy_unchecked(vec, pivots[lead], -vec[lead])
    return vec


def kernel(field, columns: dict) -> dict:
    """Fully reduced nullspace basis of the linear map with the given columns.

    `columns` maps column key -> {row key: value}.  Returns {free column:
    vector}, vectors in column keys: each free column is its vector's least
    key, with coefficient 1, and occurs in no other vector.  That is the rref
    of the kernel, from one elimination whose pivots are the largest keys.
    """
    keys = sorted(columns, reverse=True)
    rows: dict = {}
    for i, ck in enumerate(keys):
        for rk, v in columns[ck].items():
            if v != field.zero:
                rows.setdefault(rk, {})[i] = v
    pivot_map = rref(field, (rows[rk] for rk in sorted(rows)))
    out = {keys[i]: {keys[i]: field.one}
           for i in reversed(range(len(keys))) if i not in pivot_map}
    for lead, row in pivot_map.items():
        for i, v in row.items():
            if i != lead:
                out[keys[i]][keys[lead]] = field.neg(v)
    return out
