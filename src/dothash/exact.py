"""Ground-truth set metrics computed without sketching.

These are the oracles every estimator is checked against: plain
intersection and Jaccard, the weighted family sum(f(x)) over the
intersection (Adamic-Adar, Resource Allocation, and IDF similarity are
instances), and a second independent intersection route that walks the
sparse standard-basis encodings as a dot product.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .encoding import whole

if TYPE_CHECKING:  # pragma: no cover
    from .sketches import WeightFn


@dataclass(frozen=True)
class SortedSet:
    """An immutable set of element ids stored strictly increasing."""

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(whole("elements", e) for e in self.elements))
        if any(map(operator.ge, self.elements, self.elements[1:])):
            raise ValueError("SortedSet elements must be strictly increasing")

    @classmethod
    def from_iterable(cls, elements: Iterable[int]) -> "SortedSet":
        return cls(tuple(sorted(set(elements))))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, element: int) -> bool:
        i = bisect.bisect_left(self.elements, element)
        return i < len(self.elements) and self.elements[i] == element

    def as_array(self) -> np.ndarray:
        return np.array(self.elements, dtype=np.uint64)


def exact_intersection(a: SortedSet, b: SortedSet) -> int:
    """Size of the intersection, by a linear merge of the two sorted arrays."""
    xs, ys = a.elements, b.elements
    i = j = count = 0
    nx, ny = len(xs), len(ys)
    while i < nx and j < ny:
        x, y = xs[i], ys[j]
        if x == y:
            count += 1
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return count


def sparse_basis_intersection(a: SortedSet, b: SortedSet) -> int:
    """Intersection size as a sparse dot product of standard-basis encodings.

    Each set is (conceptually) the sum of one-hot vectors indexed by its
    elements; the dot product accumulates the coefficient product 1*1
    wherever the index lists align.  Must equal exact_intersection on every
    input.
    """
    xs, ys = a.elements, b.elements
    i = j = 0
    nx, ny = len(xs), len(ys)
    dot = 0.0
    while i < nx and j < ny:
        if xs[i] < ys[j]:
            i += 1
        elif ys[j] < xs[i]:
            j += 1
        else:
            dot += 1.0 * 1.0
            i += 1
            j += 1
    return int(dot)


def exact_jaccard(a: SortedSet, b: SortedSet) -> float:
    """|A ∩ B| / |A ∪ B|, by inclusion-exclusion on the merge count."""
    if len(a) == 0 and len(b) == 0:
        raise ValueError("Jaccard undefined for two empty sets")
    inter = exact_intersection(a, b)
    return inter / (len(a) + len(b) - inter)


def exact_weighted(a: SortedSet, b: SortedSet, w: "WeightFn") -> float:
    """sum of w(x) over the intersection of the two sets.

    With degree-based weights this is Adamic-Adar or Resource Allocation;
    with IDF weights it is the weighted document similarity; with unit
    weights it equals exact_intersection.
    """
    xs, ys = a.elements, b.elements
    i = j = 0
    nx, ny = len(xs), len(ys)
    total = 0.0
    while i < nx and j < ny:
        x, y = xs[i], ys[j]
        if x == y:
            wx = w(x)
            if wx < 0:
                raise ValueError("weight function must be nonnegative")
            total += wx
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return total
