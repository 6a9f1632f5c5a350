"""Sparse exact Gaussian elimination over a coefficient field.

Vectors are dicts mapping comparable keys (words, pairs of words) to nonzero
raw scalars.  The pivot of a vector is its minimal key, so families whose
minimal keys are distinct eliminate with no arithmetic at all.
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
            self.field.axpy(vec, row, -vec[lead])
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
        return not self._sweep(vec)


def rref(field, rows) -> dict:
    """Fully reduced pivot map: each pivot row is zero at all other pivots.

    Returns {lead key: row dict}; rows are inserted in the given order.
    """
    elim = Eliminator(field)
    for r in rows:
        elim.insert(dict(r))
    pivots = elim.pivots
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for other_lead, other_row in pivots.items():
            if other_lead >= lead:
                continue
            factor = other_row.get(lead)
            if factor is not None:
                field.axpy(other_row, row, -factor)
    return pivots


def reduce_mod(field, vec: dict, pivots: dict) -> dict:
    """Residual of vec modulo an rref pivot map (single pass; needs full rref)."""
    vec = dict(vec)
    hits = [k for k in vec if k in pivots]
    for lead in hits:
        factor = vec.get(lead)
        if factor is not None:
            field.axpy(vec, pivots[lead], -factor)
    return vec


def kernel(field, columns: dict) -> list:
    """Nullspace basis of the linear map with the given sparse columns.

    `columns` maps column key -> {row key: value}.  Returns one dict per free
    column, expressed in column keys, with a 1 at the free column.
    """
    rows: dict = {}
    for ck in sorted(columns):
        for rk, v in columns[ck].items():
            if v != field.zero:
                rows.setdefault(rk, {})[ck] = v
    pivot_map = rref(field, (rows[rk] for rk in sorted(rows)))
    pivot_cols = set(pivot_map)
    out = []
    for ck in sorted(columns):
        if ck in pivot_cols:
            continue
        vec = {ck: field.one}
        for lead, row in pivot_map.items():
            val = row.get(ck)
            if val is not None and val != field.zero:
                vec[lead] = field.neg(val)
        out.append(vec)
    return out
