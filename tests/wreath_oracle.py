"""Wreath element arithmetic one element at a time, kept as a test oracle of
the packed-code routines of `wreath`: products on the Cayley tables of the
base and the top group, in the multiplication law of `wreath`,
(g, sigma)(h, upsilon) = ((g_i * h_{sigma^-1(i)})_i, sigma*upsilon), with the
conjugate of `a` by `b` the element b*a*b^-1.  Also kept here: the generating
set that planted every base generator in every coordinate, and the profile
labels numbered one column at a time, which `standard_conjugators` and
`profile_labels` replaced."""

import numpy as np

from autorbit.permcore import conjugacy_classes, cycle_decompose
from autorbit.wreath import WreathElement, WreathGroup


def identity(wg: WreathGroup) -> WreathElement:
    return WreathElement((0,) * wg.n, 0)


def random_element(wg: WreathGroup, rng) -> WreathElement:
    """n uniform base ids, then a uniform top id: the draws of `random_codes`."""
    base = tuple(int(rng.integers(wg.base.order)) for _ in range(wg.n))
    return WreathElement(base, int(rng.integers(wg.top.order)))


def mul(wg: WreathGroup, a: WreathElement, b: WreathElement) -> WreathElement:
    tinv = wg.top.elements[wg.top.inverse_ids()[a.top]]
    base = tuple(int(wg.T[a.base[i], b.base[tinv[i]]]) for i in range(wg.n))
    return WreathElement(base, int(wg.top.cayley()[a.top, b.top]))


def inv(wg: WreathGroup, a: WreathElement) -> WreathElement:
    t = wg.top.elements[a.top]
    base = tuple(int(wg.base_inv[a.base[t[j]]]) for j in range(wg.n))
    return WreathElement(base, int(wg.top.inverse_ids()[a.top]))


def conj(wg: WreathGroup, a: WreathElement, b: WreathElement) -> WreathElement:
    """b * a * b^-1."""
    return mul(wg, mul(wg, b, a), inv(wg, b))


def power(wg: WreathGroup, a: WreathElement, k: int) -> WreathElement:
    if k < 0:
        return power(wg, inv(wg, a), -k)
    result, base = identity(wg), a
    while k:
        if k & 1:
            result = mul(wg, result, base)
        base = mul(wg, base, base)
        k >>= 1
    return result


def unpack(wg: WreathGroup, code: int) -> WreathElement:
    """The element of a packed code: the inverse of `WreathGroup.pack`."""
    code, t = divmod(int(code), wg.top.order)
    base = []
    for _ in range(wg.n):
        code, b = divmod(code, wg.base.order)
        base.append(b)
    return WreathElement(tuple(reversed(base)), t)


def all_coordinate_conjugators(wg: WreathGroup) -> list:
    """Generators of the wreath group as (base tuple, top row) pairs: every base
    generator planted in every coordinate, then the top generators."""
    out, ident = [], np.arange(wg.n)
    for g in wg.base.gen_ids.tolist():
        for i in range(wg.n):
            base = [0] * wg.n
            base[i] = g
            out.append((tuple(base), ident))
    return out + [((0,) * wg.n, wg.top.elements[c]) for c in wg.top.gen_ids]


def column_profile_labels(wg: WreathGroup, codes: np.ndarray) -> np.ndarray:
    """The profile labels numbered one column at a time: each code's row holds
    length * nclass + class for each cycle of its top, sorted and padded with
    -1, in int64, and n passes of np.unique number the distinct prefixes."""
    B, t = wg._unpack_codes(codes)
    table = conjugacy_classes(wg.base)
    nclass = len(table.classes)
    rows = np.full((t.size, wg.n), -1, dtype=np.int64)
    order = np.argsort(t, kind="stable")
    tops, starts = np.unique(t[order], return_index=True)
    for s, at in zip(tops.tolist(), np.split(order, starts[1:])):
        for j, zeta in enumerate(cycle_decompose(wg.top.elements[s])):
            acc = B[zeta[0], at]
            for i in zeta[1:]:
                acc = wg.T[B[i, at], acc]
            rows[at, j] = len(zeta) * nclass + table.class_of[acc]
    rows.sort(axis=1)
    labels = np.zeros(t.size, dtype=np.int64)
    for column in rows.T:
        labels = np.unique(labels * (nclass * (wg.n + 1) + 1) + column + 1,
                           return_inverse=True)[1]
    return labels


def conjugation_classes(wg: WreathGroup) -> np.ndarray:
    """Each packed code's class, numbered by least code: the class of the least
    code not yet classed is its conjugates by every element, by `conj`."""
    elements = [unpack(wg, code) for code in range(wg.order)]
    classes = np.full(wg.order, -1)
    count = 0
    for code, a in enumerate(elements):
        if classes[code] < 0:
            classes[[wg.pack(conj(wg, a, b)) for b in elements]] = count
            count += 1
    return classes
