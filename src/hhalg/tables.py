"""Bigraded tables of subquotient presentations.

The common output shape for homology, Ext and Hochschild computations:
entries indexed by (s, t), each a SubquotientPresentation, with notes.
Zero entries are omitted.  linalg computes the presentations; they live
here, with nothing but ground beneath them, so the cache rebuilds a
stored table without loading linalg.
"""

from __future__ import annotations

from .ground import Record, Value


class SubquotientPresentation(Value):
    """A finitely generated module: free part plus invariant-factor torsion."""

    _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple = ()):
        self._init(free_rank, torsion)
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion factors must form a divisibility chain")

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        if self.free_rank:
            parts.append(f"free^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts)


class BigradedTable(Record):
    """entries {(s, t): SubquotientPresentation}, notes, and completed_through,
    the last degree computed when a budget stopped short."""

    _fields = ("entries", "notes", "completed_through")

    def __init__(self, entries=None, notes: tuple = (), completed_through=None):
        self.entries = {} if entries is None else entries
        self.notes, self.completed_through = notes, completed_through

    def set(self, s: int, t: int, pres: SubquotientPresentation):
        if pres.is_zero:
            self.entries.pop((s, t), None)
        else:
            self.entries[(s, t)] = pres

    def keys(self):
        return sorted(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def by_slice(self, key, top: int) -> dict:
        """{(s, key(t)): (summed free rank, sorted torsion)} for s <= top.

        Entries whose t share a slice key are merged, so tables of two
        routes compare per slice, free rank and torsion alike.
        """
        out = {}
        for (s, t), p in self.entries.items():
            if s <= top:
                rank, torsion = out.get((s, key(t)), (0, ()))
                out[(s, key(t))] = (rank + p.free_rank, tuple(sorted(torsion + p.torsion)))
        return out

    def rows(self):
        """(s, t, free_rank, torsion) rows in sorted order."""
        out = []
        for (s, t) in self.keys():
            p = self.entries[(s, t)]
            out.append((s, t, p.free_rank, p.torsion))
        return out

    def __eq__(self, other):
        return isinstance(other, BigradedTable) and self.entries == other.entries

    def __str__(self):
        if self.is_zero():
            return "(zero table)"
        return "\n".join(
            f"s={s} t={t}: {self.entries[(s, t)]}" for (s, t) in self.keys()
        )
