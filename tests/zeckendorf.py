"""Zeckendorf numeration: a float-free, sqrt-free oracle for the losing pairs.

Every positive integer is a unique sum of non-consecutive Fibonacci
numbers F_k with k >= 2 (F_2 = 1, F_3 = 2, F_4 = 3, ...).  A value x >= 1
is a lower value p(n) exactly when its smallest term has even index, and
its partner q(n) is then sigma(x), every term F_k moved up to F_{k+1};
an upper value's partner moves every term back down (A. S. Fraenkel,
Amer. Math. Monthly 89, 1982).  Only additions, subtractions and
comparisons of Fibonacci numbers are used, so the oracle shares nothing
with the ``isqrt`` kernel it checks.
"""

_FIBS = [1, 2]  # _FIBS[i] is F_{i + 2}


def _terms(x: int) -> list[int]:
    """Indices k of the Zeckendorf terms F_k of x >= 1, largest first."""
    while _FIBS[-1] <= x:
        _FIBS.append(_FIBS[-1] + _FIBS[-2])
    ks = []
    for i in range(len(_FIBS) - 1, -1, -1):
        if _FIBS[i] <= x:
            x -= _FIBS[i]
            ks.append(i + 2)
    return ks


def _shifted(ks: list[int], by: int) -> int:
    # _terms leaves a Fibonacci number above x in _FIBS, so F_{k + 1} is there
    return sum(_FIBS[k - 2 + by] for k in ks)


def partner(x: int) -> int:
    """The other pile of the losing pair containing x >= 1."""
    ks = _terms(x)
    return _shifted(ks, 1 if ks[-1] % 2 == 0 else -1)


def is_losing(a: int, b: int) -> bool:
    """Whether the canonical state a <= b is a losing pair."""
    if a == 0:
        return b == 0
    ks = _terms(a)
    return ks[-1] % 2 == 0 and _shifted(ks, 1) == b
