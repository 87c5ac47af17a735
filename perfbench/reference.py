"""Independent reference answers for the benchmark's correctness checks.

Nothing here imports ``padic``: every expected value comes from plain
integer and ``fractions.Fraction`` arithmetic, so a bug in the library
cannot hide itself by also appearing in its own check.
"""

from __future__ import annotations

from fractions import Fraction


def residue(q, modulus: int) -> int:
    """Residue of a rational whose denominator is a unit modulo ``modulus``."""
    q = Fraction(q)
    return q.numerator * pow(q.denominator, -1, modulus) % modulus


def horner_mod(coeffs, x, modulus: int) -> int:
    """f(x) mod ``modulus`` by integer Horner; coefficients lowest first."""
    x = residue(x, modulus)
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + residue(c, modulus)) % modulus
    return acc


def horner_exact(coeffs, x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def val_int(p: int, z: int) -> int:
    """Valuation of a nonzero integer, by blocks of p**16 then single digits."""
    z = abs(z)
    v = 0
    block = p**16
    while z % block == 0:
        z //= block
        v += 16
    while z % p == 0:
        z //= p
        v += 1
    return v


def val(p: int, q) -> int | None:
    """Valuation of a rational; None encodes +infinity at zero."""
    q = Fraction(q)
    if q == 0:
        return None
    return val_int(p, q.numerator) - val_int(p, q.denominator)


def scan_roots(coeffs, p: int, k: int) -> list[int]:
    """Every residue mod p**k that is a root, by exhaustive scan."""
    modulus = p**k
    cs = [residue(c, modulus) for c in coeffs]
    roots = []
    for x in range(modulus):
        acc = 0
        for c in reversed(cs):
            acc = (acc * x + c) % modulus
        if acc == 0:
            roots.append(x)
    return roots


def tree_roots(coeffs, p: int, k: int) -> list[int]:
    """Every root mod p**k, by extending roots mod p**j one digit at a time.

    A root mod p**(j+1) reduces to a root mod p**j, so trying the p
    extensions of each root at level j finds all roots at level j+1.  The
    work grows with the number of roots, not with p**k.
    """
    modulus = p**k
    cs = [residue(c, modulus) for c in coeffs]
    level = [r for r in range(p) if _horner_int(cs, r, p) == 0]
    pj = p
    for _ in range(1, k):
        nxt = pj * p
        level = [
            r + i * pj
            for r in level
            for i in range(p)
            if _horner_int(cs, r + i * pj, nxt) == 0
        ]
        pj = nxt
    return sorted(level)


def _horner_int(cs, x: int, modulus: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % modulus
    return acc


def unit_digits(p: int, q, n: int) -> tuple[int, tuple[int, ...]]:
    """(valuation, first n base-p digits of the unit part) of nonzero q."""
    q = Fraction(q)
    v = val(p, q)
    u = residue(q / Fraction(p) ** v, p**n)
    digits = []
    for _ in range(n):
        u, d = divmod(u, p)
        digits.append(d)
    return v, tuple(digits)


def padic_number_error(p: int, form: str, v: int, unit: int, prec: int, exact) -> str | None:
    """Whether a capped-precision element is a sound approximation of ``exact``.

    A unit form claims exact = p**v * unit (mod p**(v + prec)), which also
    pins the valuation to v; an inexact zero ``O(p**v)`` claims
    exact = 0 (mod p**v); an exact zero claims exact = 0.  Returns a
    description of the broken claim, or None.
    """
    exact = Fraction(exact)
    if form == "zero":
        return None if exact == 0 else f"exact zero, expected {exact}"
    if form == "zero_at_least":
        ve = val(p, exact)
        return None if ve is None or ve >= v else f"O({p}^{v}) but value has valuation {ve}"
    if prec < 1 or not 0 < unit < p**prec or unit % p == 0:
        return f"malformed unit form v={v} unit={unit} N={prec}"
    diff = exact - Fraction(p) ** v * unit
    vd = val(p, diff)
    if vd is not None and vd < v + prec:
        return f"{p}^{v}*{unit} + O({p}^{v + prec}) does not approximate {exact}"
    return None


def root_error(coeffs, p: int, a, k: int, e: int, root: int) -> str | None:
    """Whether ``root`` is the residue mod p**k of the root that a lifts to.

    With e = nu(f'(a)) and nu(root - a) > e, nu(f(root)) = e + nu(root - xi)
    for the true root xi, so root = xi (mod p**k) exactly when
    f(root) = 0 (mod p**(k + e)).
    """
    if not 0 <= root < p**k:
        return f"root {root} outside [0, {p}^{k})"
    if (root - residue(a, p ** (e + 1))) % p ** (e + 1):
        return f"root {root} not within {p}^{e + 1} of the seed"
    if horner_mod(coeffs, root, p ** (k + e)):
        return f"f(root) is not 0 mod {p}^{k + e}"
    return None
