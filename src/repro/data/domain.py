"""Mixed-radix Cartesian-product domains.

RR-Joint (Protocol 2) and RR-Clusters (Section 4) treat a set of
attributes as one product attribute whose categories are the tuples of
the Cartesian product. A :class:`Domain` maps between per-attribute
code columns and a single flat mixed-radix code, the representation
every joint mechanism in this library operates on.

The encoding is row-major over the given attribute order: for sizes
``(r_1, ..., r_k)`` the tuple ``(c_1, ..., c_k)`` maps to
``c_1 * r_2 * ... * r_k + c_2 * r_3 * ... * r_k + ... + c_k``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.data.schema import Attribute, Schema
from repro.exceptions import DomainError

__all__ = ["Domain"]


class Domain:
    """Mixed-radix view of an ordered set of attributes.

    Parameters
    ----------
    attributes:
        The attributes forming the product, in encoding order.
    """

    def __init__(self, attributes: Iterable[Attribute]):
        attrs = tuple(attributes)
        if not attrs:
            raise DomainError("domain needs at least one attribute")
        self._attributes = attrs
        self._sizes = np.array([a.size for a in attrs], dtype=np.int64)
        # Row-major place values: radix[i] = prod(sizes[i+1:]).
        radix = np.ones(len(attrs), dtype=np.int64)
        for i in range(len(attrs) - 2, -1, -1):
            radix[i] = radix[i + 1] * self._sizes[i + 1]
        self._radix = radix
        self._size = int(radix[0] * self._sizes[0])

    @classmethod
    def from_schema(cls, schema: Schema, names: Sequence | None = None) -> "Domain":
        """Build the domain of ``names`` (all attributes if ``None``)."""
        if names is None:
            return cls(schema.attributes)
        return cls(schema.attribute(n) for n in names)

    @property
    def attributes(self) -> tuple:
        return self._attributes

    @property
    def names(self) -> tuple:
        return tuple(a.name for a in self._attributes)

    @property
    def sizes(self) -> tuple:
        return tuple(int(s) for s in self._sizes)

    @property
    def radix(self) -> tuple:
        """Row-major place value of each attribute in a flat code."""
        return tuple(int(r) for r in self._radix)

    @property
    def size(self) -> int:
        """Number of cells ``prod |A_j|`` of the product domain."""
        return self._size

    @property
    def width(self) -> int:
        return len(self._attributes)

    def encode(self, columns: np.ndarray) -> np.ndarray:
        """Flatten per-attribute code columns into mixed-radix codes.

        Parameters
        ----------
        columns:
            Integer array of shape ``(n, width)`` (or ``(width,)`` for a
            single record) holding per-attribute codes.

        Returns
        -------
        numpy.ndarray
            Flat codes in ``[0, size)``, shape ``(n,)`` (or scalar array
            for a single record).
        """
        cols = np.asarray(columns, dtype=np.int64)
        single = cols.ndim == 1
        if single:
            cols = cols[None, :]
        if cols.ndim != 2 or cols.shape[1] != self.width:
            raise DomainError(
                f"expected {self.width} code columns, got shape {cols.shape}"
            )
        if cols.size and (cols.min() < 0 or (cols >= self._sizes[None, :]).any()):
            raise DomainError("codes out of range for domain sizes")
        flat = cols @ self._radix
        return flat[0] if single else flat

    def decode(self, flat: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`encode`.

        Returns an ``(n, width)`` array of per-attribute codes.
        """
        codes = np.asarray(flat, dtype=np.int64)
        single = codes.ndim == 0
        codes = np.atleast_1d(codes)
        if codes.size and (codes.min() < 0 or codes.max() >= self._size):
            raise DomainError(
                f"flat codes out of range [0, {self._size}) for this domain"
            )
        out = (codes[:, None] // self._radix[None, :]) % self._sizes[None, :]
        return out[0] if single else out

    def cell_tuple(self, flat: int) -> tuple:
        """Category *labels* of a flat code, e.g. for report rendering."""
        codes = self.decode(np.int64(flat))
        return tuple(
            attr.categories[int(c)] for attr, c in zip(self._attributes, codes)
        )

    def marginalize_axes(self, names: Sequence) -> tuple:
        """Positions (within this domain) of the given attribute names."""
        pos = []
        own = {a.name: i for i, a in enumerate(self._attributes)}
        for name in names:
            if name not in own:
                raise DomainError(f"attribute {name!r} not in domain {self.names}")
            pos.append(own[name])
        return tuple(pos)

    def marginal_distribution(
        self, joint: np.ndarray, names: Sequence
    ) -> np.ndarray:
        """Marginalize a flat joint distribution onto ``names``.

        Parameters
        ----------
        joint:
            Length-``size`` vector over this domain's flat cells.
        names:
            Attribute names to keep, in the order the caller wants them.

        Returns
        -------
        numpy.ndarray
            Flat distribution over ``Domain(names)`` (row-major in the
            requested order).
        """
        vec = np.asarray(joint, dtype=np.float64)
        if vec.shape != (self._size,):
            raise DomainError(
                f"joint must have shape ({self._size},), got {vec.shape}"
            )
        keep = self.marginalize_axes(names)
        grid = vec.reshape(self.sizes)
        drop = tuple(i for i in range(self.width) if i not in keep)
        reduced = grid.sum(axis=drop) if drop else grid
        # reduced axes are ordered by position; transpose to caller order.
        order = np.argsort(np.argsort(keep))  # identity if keep already sorted
        current = tuple(sorted(keep))
        perm = [current.index(k) for k in keep]
        del order
        return np.transpose(reduced, axes=perm).reshape(-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Domain):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        return f"Domain({'x'.join(map(str, self.sizes))}={self.size})"
