"""Wreath element arithmetic one element at a time, kept as a test oracle of
the packed-code routines of `wreath`: products on the Cayley tables of the
base and the top group, in the multiplication law of `wreath`,
(g, sigma)(h, upsilon) = ((g_i * h_{sigma^-1(i)})_i, sigma*upsilon), with the
conjugate of `a` by `b` the element b*a*b^-1."""

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
