"""Certified root lifting for polynomials over the p-adic integers.

Given ``f`` with p-integral coefficients and a seed ``a`` satisfying the
strong hypothesis ``nu(f(a)) > 2*nu(f'(a))`` (in norm form,
``|f(a)| < |f'(a)|**2``), Newton iteration
``a_{n+1} = a_n - f(a_n)/f'(a_n)`` converges to the unique root near the
seed.  :func:`lift` runs the iteration with exact valuation bookkeeping
and returns a :class:`HenselCertificate` recording the hypothesis
exponents, the full iteration trace and the root residue, from which the
distance to the seed and the uniqueness radius follow;
:func:`verify_certificate` re-checks everything from scratch without
trusting the lifter.

Exponent conventions.  With ``e = nu(f'(a))`` and ``m = nu(f(a))`` the
hypothesis reads ``m > 2e`` and the gap ``t = m - 2e >= 1`` controls
convergence: along the iteration ``nu(f(a_n)) >= 2e + t*2**n`` (the
residual norm is squared each step) while ``nu(f'(a_n)) = e`` stays put.
The root satisfies ``nu(root - a) = m - e`` and is the only root z with
``nu(z - a) > e``.

Newton steps run only inside :func:`lift`, which records each iterate
in the trace; no single step is public, and tests read the steps off
the trace.  They work at a doubling precision read off the measured
valuations.  Step 0 is the seed itself, whose ``v_0 = m`` the hypothesis
measured; with ``v_n = nu(f(a_n))``, the update ``a_(n+1)`` is computed
modulo ``p**w`` for ``w = min(2*v_n - e, k + e)``.  Cutting ``a_(n+1)``
there moves f by valuation at least ``e + w``, which is ``2*v_n`` or
``k + 2e``, no less than Newton's own ``nu(f(a_(n+1))) >= 2*v_n - 2e``, so
the residual valuations still double and only the last steps pay for the
full ``p**(k + e)``: the k digits reported plus the e that dividing by
``f'`` costs.  The iteration stops once ``v_n >= k + e`` (or
``f(a_n) = 0``) and reports ``a_n`` modulo ``p**k``.  Evaluation is integer
Horner on ``d*f``, where d clears the denominators; d is a p-adic unit, so
valuations and the Newton quotient are those of f.

The update itself runs at half precision.  With ``f(a_n) = p**v_n * u`` and
``f'(a_n) = p**e * h``, the quotient is ``p**(v_n - e) * u / h``, so modulo
``p**w`` it reads u and the inverse of the unit h only modulo
``p**(w - v_n + e)``, about ``v_n`` digits; u is the quotient left over
from measuring ``v_n``.  That inverse comes from the p-adic Newton inverse
``x -> x*(2 - h*x)``, which doubles the correct digits per pass, and is
carried from step to step: ``f'(x) - f'(y)`` is divisible by ``x - y`` and
``nu(a_(n+1) - a_n) >= v_n - e``, so the inverse of one step's h is an
inverse of the next one's to ``min(w - v_n + e, v_n - 2e)`` digits, and
one or two passes refine it.

Valuations recorded in the trace are exact values of ``f`` at the integer
iterates; any bound involving them is capped at ``k + e``, beyond which a
residue cannot witness a valuation.  :func:`verify_certificate` reads each
residue only to the precision that decides its check: ``f`` at trace step
n modulo ``p**(v_n + 1)`` (capped at k), ``f'`` at the root modulo
``p**(e + 1)`` and ``f`` at the root modulo ``p**k``.

Where the time goes at large k.  A lift is then bound by three
p**k-sized divisions: the full-size ``f(a_n)`` by ``p**floor`` in the last
step's :func:`_split`, and ``f`` at the root modulo ``p**k`` in the verify
that :func:`lift` runs and again in a verify of its record.  CPython 3.11
divides by schoolbook, at about five squarings of a 26,000-bit ``p**k``,
so both go through ``number._divmod``, which recurses on a long divisor
and is the builtin below the threshold it keeps.  Every power of p comes from
``number._power``, the library's bounded cache, so a lift, its verify and
a verify of its record build each ``p**n`` once.  ``f`` is evaluated
exactly, as the trace records the exact ``v_n``; ``f'`` is read only
modulo ``p**(e + prec)``, where ``prec = w - v_n + e`` is what the update
reads of its unit, and modulo ``p**(e + 1)`` at the step that stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DerivativeVanishes,
    HypothesisFailed,
    InternalBoundViolation,
    NotAnInteger,
    PrecisionExhausted,
)
from .number import _divmod, _horner, _power, rational_residue
from .polynomial import MAX_MODULUS_BITS, PadicPoly
from .valuation import _val_int, padic_val_int

MAX_STEPS = 64


@dataclass(frozen=True)
class Hypothesis:
    """Exponent form of the lifting hypothesis at the seed.

    ``e = nu(f'(a))``; ``m = nu(f(a))`` with ``None`` encoding +infinity
    (the seed is an exact root); ``t = m - 2e >= 1`` when finite.
    """

    e: int
    m: int | None
    t: int | None

    @property
    def degenerate(self) -> bool:
        return self.m is None


@dataclass(frozen=True)
class LiftStep:
    """One iteration state: residue of a_n mod p**k and exact valuations."""

    n: int
    residue: int
    val_f: int | None  # None encodes +infinity (exact zero)


@dataclass(frozen=True)
class HenselCertificate:
    """The fields of the certificate record; everything else derives from them."""

    p: int
    f: PadicPoly
    a: Fraction
    k: int
    hypothesis: Hypothesis
    trace: tuple[LiftStep, ...]
    root: int
    checks_passed: bool

    @property
    def dist_exponent(self) -> int | None:
        """nu(root - a) mod p**k; None when they agree.

        A p**k above ``2**MAX_MODULUS_BITS`` raises :class:`ValueError`.
        """
        _require_fit(self.p, self.k)
        mod_k = _power(self.p, self.k)
        return _val(self.p, (self.root - rational_residue(self.a, mod_k)) % mod_k)


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def check_hypothesis(f: PadicPoly, a) -> Hypothesis:
    """Exact hypothesis check at a rational seed.

    Raises :class:`DerivativeVanishes` when f'(a) = 0 (the hypothesis
    |f(a)| < |f'(a)|**2 is then unsatisfiable) and
    :class:`HypothesisFailed` when nu(f(a)) <= 2*nu(f'(a)).  e and m are
    read by :func:`_exponents` in integers, from f's cleared integer
    coefficients and the seed's numerator and denominator, as
    :func:`verify_certificate` reads them; the lcm of f's denominators and
    the seed's denominator are p-adic units, so they are the valuations
    of f and f' at the seed.
    """
    p, a = f.p, Fraction(a)
    if f.degree < 1:
        raise ValueError("polynomial must be nonconstant")
    if a.denominator % p == 0:
        raise NotAnInteger(f"seed {a} is not a {p}-adic integer")
    e, m = _exponents(p, *f._cleared, a)
    if e is None:
        raise DerivativeVanishes(f"f'({a}) = 0, no lifting neighborhood")
    if m is None:
        return Hypothesis(e=e, m=None, t=None)
    if m <= 2 * e:
        raise HypothesisFailed(m, e)
    return Hypothesis(e=e, m=m, t=m - 2 * e)


def _val(p: int, x: int) -> int | None:
    """nu(x) of an integer, or None when x = 0 (valuation +infinity)."""
    return None if x == 0 else _val_int(p, x)


def _exponents(p: int, ints: tuple[int, ...], dints: tuple[int, ...],
               a: Fraction | int) -> tuple[int | None, int | None]:
    """(e, m) = (nu(f'(a)), nu(f(a))) from the cleared integer coefficients.

    For a = n/d and coefficients c_0 .. c_D, the integer
    sum(c_i * n**i * d**(D - i)) is d**D times the polynomial at a, and d
    is a p-adic unit, so it has the valuation at a with no Fraction built.

    >>> _exponents(5, (-6, 0, 1), (0, 2), Fraction(7, 2))  # f = x^2 - 6
    (0, 2)
    """
    n, d = a.numerator, a.denominator

    def val(coeffs: tuple[int, ...]) -> int | None:
        acc = 0
        for i, c in enumerate(reversed(coeffs)):  # c_(D - i) gets d**i
            acc = acc * n + c * d**i
        return _val(p, acc)

    return val(dints), val(ints)


def _split(p: int, x: int, floor: int) -> tuple[int | None, int]:
    """(nu(x), x / p**nu(x)) for an integer x, or (None, 0) when x = 0.

    An x whose valuation likely reaches ``floor`` has p**floor divided out
    in one step, where square-and-divide would spend several big divisions
    finding it, and the quotient of that division is the unit part but for
    the few factors of p left above the floor.  Any floor >= 0 gives the
    exact valuation.
    """
    if x == 0:
        return None, 0
    q, r = _divmod(x, _power(p, floor))
    if r:  # the floor overshot
        q, floor = x, 0
    j = padic_val_int(p, q)
    return floor + j, q // _power(p, j) if j else q


def _derivative_unit(p: int, dints: tuple[int, ...], x: int, e: int,
                     prec: int) -> int | None:
    """f'(x)/p**e modulo p**prec at an integer x, or None unless nu(f'(x)) = e.

    f' is the cleared integer ``dints``, read only modulo p**(e + prec):
    a Newton step reads its unit to the precision of its inverse, and the
    step that stops reads none of it, so there prec = 1 and the residue
    mod p**(e + 1) decides nu(f'(x)) = e alone.
    """
    h, r = divmod(_value_mod(dints, x, _power(p, e + prec)), _power(p, e))
    return h if not r and h % p else None


def _visible(v: int | None, k: int) -> int:
    """nu as far as a residue mod p**k witnesses it: k and above read as k."""
    return k if v is None else min(v, k)


def _capped(c: int, t: int, n: int, cap: int) -> int:
    """min(c + ceil(t*2**n), cap) for c >= 0, t >= 1, in integers only.

    A huge n builds no huge 2**n, and a negative n (a tampered trace
    index) no float, which would overflow for a huge t.  The ceiling keeps
    ``v < bound`` the same test as against the exact fraction.
    """
    if n >= cap.bit_length():
        return cap
    return min(c + (t << n if n >= 0 else -(-t >> -n)), cap)


def _unit_inverse(h: int, p: int, w: int, x: int = 0, known: int = 0) -> int:
    """An inverse of the p-adic unit ``h`` modulo p**w, by Newton iteration.

    An inverse x mod p**ceil(w/2) gives one mod p**w as x*(2 - h*x): each
    pass doubles the correct digits, so the cost is a few products at the
    final size rather than an extended Euclid on p**w.  The passes start
    from ``x``, an inverse of h modulo p**known, when ``known >= 1`` (an
    inverse carried over from a nearby h), and else from the inverse mod
    p.  When ``known >= w`` it is x itself, reduced no further.
    """
    if known < 1:
        x, known = pow(h % p, -1, p), 1
    precisions = []
    while w > known:
        precisions.append(w)
        w = (w + 1) // 2
    for w in reversed(precisions):
        modulus = _power(p, w)
        x = x * (2 - h % modulus * x) % modulus
    return x


def _value_mod(coeffs: tuple[int, ...], x: int, modulus: int) -> int:
    """The polynomial with integer ``coeffs`` at x, modulo ``modulus``.

    A coefficient already smaller than the modulus in size is used as it
    is, since reducing a small negative one would make it full-size, and
    the accumulator is reduced only once it outgrows twice the modulus's
    bits, so Horner multiplies short operands and divides short ones.
    Every reduction goes through :func:`~padic.number._divmod`, which
    recurses on a long modulus and is the builtin below its threshold.

    >>> _value_mod((-6, 0, 1), 9, 5**4)
    75
    """
    limit = 2 * modulus.bit_length()
    acc = 0
    for c in reversed(coeffs):
        if not -modulus < c < modulus:
            c = _divmod(c, modulus)[1]
        acc = acc * x + c
        if acc.bit_length() > limit:
            acc = _divmod(acc, modulus)[1]
    return _divmod(acc, modulus)[1]


def _fits(p: int, k: int) -> bool:
    """Whether p**k <= 2**MAX_MODULUS_BITS, decided without building p**k."""
    return k <= MAX_MODULUS_BITS / math.log2(p)


def _require_fit(p: int, k: int):
    if not _fits(p, k):
        raise ValueError(f"{p}^{k} exceeds the modulus bound 2^{MAX_MODULUS_BITS}")


def _require_room(k: int, e: int):
    """Refuse a target exponent k that leaves no digit below nu(f'(a)) = e."""
    if k - e <= 0:
        raise PrecisionExhausted(
            f"target exponent {k} leaves no room below nu(f'(a)) = {e}"
        )


def _step(p: int, a: int, u: int, v: int, h: int, e: int, w: int,
          inv: int = 0, known: int = 0) -> tuple[int, int]:
    """The Newton update a - f(a)/f'(a) modulo p**w, and the inverse it read.

    ``u = f(a)/p**v`` and ``h = f'(a)/p**e``, or both times one p-adic
    unit, with e < v and h a unit.  The quotient f(a)/f'(a) is
    p**(v - e) * u / h, so modulo p**w it reads u and the inverse of h only
    modulo p**(w - v + e): about half of w once w is near 2v.  That
    inverse comes from :func:`_unit_inverse`, refining ``inv``, an inverse
    of h modulo p**known, and is returned for the next step to carry.
    """
    prec = w - v + e
    inv = _unit_inverse(h, p, prec, inv, known)
    modulus = _power(p, prec)
    return (a - _power(p, v - e) * (u % modulus * inv % modulus)) % _power(p, w), inv


def lift(f: PadicPoly, a, k: int) -> HenselCertificate:
    """Lift the seed to a certified root of f modulo p**k.

    Iterates Newton steps at a doubling working precision until
    nu(f(a_n)) >= k + e, so the correction has valuation at least ``k``
    and the reported residue equals the true root's residue, not merely
    an approximate zero; each state goes into the trace.  When f(a) = 0
    exactly the seed itself is returned with an empty trace.  The
    returned certificate has been re-checked by :func:`verify_certificate`.
    A p**k above ``2**MAX_MODULUS_BITS`` raises :class:`ValueError`.
    """
    p = f.p
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    _require_fit(p, k)
    a = Fraction(a)
    hyp = check_hypothesis(f, a)
    ints, dints = f._cleared
    mod_k = _power(p, k)
    trace: list[LiftStep] = []
    root = rational_residue(a, mod_k)
    if not hyp.degenerate:
        e, t = hyp.e, hyp.t
        kw = k + e
        _require_room(k, e)
        # the seed mod p**(2m) keeps nu(f) = m and the precision step 1 needs
        cur, floor = rational_residue(a, _power(p, 2 * hyp.m)), hyp.m
        inv, known = 0, 0  # an inverse of f'(cur)/p**e modulo p**known
        for n in range(MAX_STEPS + 1):
            val_f, u = _split(p, _horner(ints, cur, 0), floor)
            stop = val_f is None or val_f >= kw
            w = kw if stop else min(2 * val_f - e, kw)
            # the update reads f'(cur)/p**e to w - val_f + e digits
            h = _derivative_unit(p, dints, cur, e, 1 if stop else w - val_f + e)
            if h is None:
                raise InternalBoundViolation(
                    f"derivative valuation drifted from {e} at step {n}"
                )
            if val_f is not None and val_f < _capped(2 * e, t, n, kw):
                raise InternalBoundViolation(
                    f"induction bound broken at step {n}: nu(f(a_n)) = {val_f}"
                )
            trace.append(LiftStep(n, root, val_f))
            if stop:
                break
            cur, inv = _step(p, cur, u, val_f, h, e, w, inv, known)
            root = cur % mod_k
            # nu(cur - previous cur) >= val_f - e moves f'/p**e by at least
            # val_f - 2e digits, so inv stays an inverse to that many
            known = min(w - val_f + e, val_f - 2 * e)
            floor = min(2 * val_f - 2 * e, kw)  # Newton's quadratic bound
        else:
            raise InternalBoundViolation(f"no convergence within {MAX_STEPS} steps")

    cert = HenselCertificate(p, f, a, k, hyp, tuple(trace), root, False)
    # verify reads every field but this flag, so the one certificate takes its verdict
    object.__setattr__(cert, "checks_passed", bool(verify_certificate(cert)))
    return cert


def verify_certificate(cert: HenselCertificate) -> VerificationResult:
    """Re-check every certificate invariant from scratch.

    Recomputes the hypothesis exponents exactly at the seed, from the
    cleared integer coefficients of d*f and d*f' (d a p-adic unit, so the
    valuations are those of f and f').  Everything else it checks reads
    only valuations visible below ``k``, and a valuation claim v is
    decided by one residue test modulo p**c for c = min(v + 1, k): the
    residue is 0 when v >= k, and otherwise nonzero and divisible by
    p**v; a negative v never holds.  So it evaluates by integer Horner,
    on the cleared coefficients reduced to each modulus, f at trace step
    n modulo p**c for that step's claimed nu(f(a_n)), f' at the root
    modulo p**min(e + 1, k) and f at the root modulo p**k; a point met
    twice at one modulus (the last step is the root) is evaluated once.  It
    checks the induction bound, the quadratic growth of residual
    valuations, the distance law between consecutive iterates, and the
    step-count bound.  Returns a falsy result carrying the labels of all
    failed checks, at most one per check and trace step; never raises.

    Before any check runs, a certificate of the wrong shape is rejected
    with the single label ``malformed``: a field of the wrong type, f
    over a prime other than p, ``k < 1``, p**k above
    ``2**MAX_MODULUS_BITS``, ``e < 0``, a not p-integral, or ``t < 1`` (or
    missing) while m is finite.

    Each label names the part of the strong Hensel lemma that the record
    fails to support.  From ``|f(a)| < |f'(a)|**2`` the lemma concludes
    that a root z exists, that ``|z - a| < |f'(a)|``, that
    ``|f'(z)| = |f'(a)|``, that ``|z - a| = |f(a)|/|f'(a)|``, and that z is
    the only root with ``|z - a| < |f'(a)|``:

    - ``root_residue``: a root exists.  It checks f(root) = 0 modulo
      p**k, which pins a true root only modulo p**(k - e) when e > 0.
    - ``root_near_seed``: ``|z - a| < |f'(a)|``.
    - ``derivative_stability``: ``|f'(z)| = |f'(a)|``.
    - ``distance_law``: ``|z - a| = |f(a)|/|f'(a)|``; ``degenerate_root``
      is its form for an exact root seed, z = a.
    - ``hypothesis_e``, ``hypothesis_m``, ``hypothesis_strength`` and
      ``degenerate_flag``: the hypothesis, on which uniqueness rests.
    - ``trace_*``: the Newton convergence argument.
    """
    if not _well_formed(cert):
        return VerificationResult(False, ("malformed",))
    fails: list[str] = []
    p, k, f = cert.p, cert.k, cert.f
    hyp = cert.hypothesis
    e = hyp.e
    mod_k = _power(p, k)

    ints, dints = f._cleared
    e_true, m_true = _exponents(p, ints, dints, cert.a)
    if e_true != e:
        fails.append("hypothesis_e")
    if hyp.m != m_true:
        fails.append("hypothesis_m")
    if hyp.degenerate != (m_true is None):
        fails.append("degenerate_flag")
    if not hyp.degenerate and hyp.t != hyp.m - 2 * e:
        fails.append("hypothesis_strength")

    memo: dict[tuple[bool, int, int], int] = {}  # (f, not f'; point; modulus) -> residue

    def shows(coeffs: tuple[int, ...], x: int, v: int | None) -> bool:
        """Whether coeffs' polynomial at x, mod p**k, witnesses nu = v capped at k."""
        want = _visible(v, k)
        if want < 0:
            return False
        modulus = _power(p, min(want + 1, k))
        x %= modulus
        key = (coeffs is ints, x, modulus)
        if key not in memo:
            memo[key] = _value_mod(coeffs, x, modulus)
        r = memo[key]
        return not r if want == k else r > 0 and not r % _power(p, want)

    seed_res = rational_residue(cert.a, mod_k)
    if not shows(ints, cert.root, None):
        fails.append("root_residue")
    if (cert.root - seed_res) % _power(p, min(e + 1, k)) != 0:
        fails.append("root_near_seed")

    if not shows(dints, cert.root, e):
        fails.append("derivative_stability")

    measured = _val(p, (cert.root - seed_res) % mod_k)
    if hyp.degenerate:
        if cert.trace:
            fails.append("trace_empty")
        if measured is not None:
            fails.append("degenerate_root")
        return VerificationResult(not fails, tuple(fails))

    m, t = hyp.m, hyp.t
    expected_dist = m - e if m - e < k else None
    if measured != expected_dist:
        fails.append("distance_law")
    if not cert.trace:
        fails.append("trace_missing")
        return VerificationResult(False, tuple(fails))

    if [s.n for s in cert.trace] != list(range(len(cert.trace))):
        fails.append("trace_indices")
    if cert.trace[0].residue != seed_res:
        fails.append("trace_seed")
    if cert.trace[-1].residue != cert.root:
        fails.append("trace_root")

    cap = k + e
    for step in cert.trace:
        if step.val_f is not None and step.val_f < _capped(2 * e, t, step.n, cap):
            fails.append(f"trace_ih_{step.n}")
        if not shows(ints, step.residue, step.val_f):
            fails.append(f"trace_reval_{step.n}")

    for s1, s2 in zip(cert.trace, cert.trace[1:]):
        if s1.val_f is None:
            fails.append(f"trace_after_zero_{s2.n}")
            continue
        if s2.val_f is not None and s2.val_f < min(2 * s1.val_f - 2 * e, cap):
            fails.append(f"trace_quadratic_{s2.n}")

    # Consecutive pairs suffice: the bound never decreases in n, and
    # nu(r_j - r_i) >= min(nu(r_(l+1) - r_l) for i <= l < j) by the
    # ultrametric inequality, so every pair then keeps its bound too.  (A
    # trace whose indices are out of order already fails trace_indices.)
    for s1, s2 in zip(cert.trace, cert.trace[1:]):
        if (s2.residue - s1.residue) % _power(p, _capped(e, t, s1.n, k)):
            fails.append(f"trace_distance_{s1.n}_{s2.n}")

    # quadratic convergence: steps needed is log-sized in (k - e)/t
    steps_taken = len(cert.trace) - 1
    doublings = 0
    while t << doublings < k - e:
        doublings += 1
    if steps_taken > doublings + 1:
        fails.append("trace_length")

    return VerificationResult(not fails, tuple(fails))


def _well_formed(cert: HenselCertificate) -> bool:
    """Whether the fields have the shape :func:`verify_certificate` assumes."""
    hyp, trace, p, k = cert.hypothesis, cert.trace, cert.p, cert.k
    if not (isinstance(hyp, Hypothesis) and isinstance(trace, (tuple, list))
            and isinstance(p, int) and isinstance(cert.f, PadicPoly) and cert.f.p == p
            and isinstance(k, int) and k >= 1 and _fits(p, k) and isinstance(cert.root, int)
            and isinstance(hyp.e, int) and hyp.e >= 0
            and (hyp.m is None or isinstance(hyp.m, int) and isinstance(hyp.t, int)
                 and hyp.t >= 1)
            and isinstance(cert.a, (int, Fraction)) and cert.a.denominator % p):
        return False
    for s in trace:
        if not (isinstance(s, LiftStep) and isinstance(s.n, int)
                and isinstance(s.residue, int)
                and (s.val_f is None or isinstance(s.val_f, int))):
            return False
    return True


def unique_in_neighborhood(f: PadicPoly, cert: HenselCertificate, z2: int) -> bool:
    """Whether a root residue inside the uniqueness ball matches the root.

    ``z2`` must satisfy f(z2) = 0 (mod p**k), which is checked by the
    integer Horner that :func:`verify_certificate` uses.  Returns True when
    nu(z2 - a) > e implies z2 = root (mod p**k), and True vacuously for
    residues outside the ball.  Intended as a test predicate against
    exhaustive root lists; for e > 0 a root modulo p**k need not come
    from a true root, so apply it where e = 0 or to certified residues.
    A p**k above ``2**MAX_MODULUS_BITS`` raises :class:`ValueError`.
    """
    p, k = cert.p, cert.k
    _require_fit(p, k)
    mod_k = _power(p, k)
    z2 = z2 % mod_k
    # f's own residues rather than f._cleared: f may be over another
    # prime, whose cleared denominators need not be units mod p
    if _value_mod([rational_residue(c, mod_k) for c in f.coeffs], z2, mod_k) != 0:
        raise ValueError(f"{z2} is not a root of f modulo {p}^{k}")
    d = _val(p, (z2 - rational_residue(cert.a, mod_k)) % mod_k)
    if d is None or d > cert.hypothesis.e:
        return z2 == cert.root
    return True


def certificate_to_record(cert: HenselCertificate) -> dict:
    """JSON-ready record with stable field order."""
    return {
        "p": cert.p,
        "f": [str(c) for c in cert.f.coeffs],
        "a": str(cert.a),
        "K": cert.k,
        "e": cert.hypothesis.e,
        "m": cert.hypothesis.m,
        "t": cert.hypothesis.t,
        "trace": [[s.n, s.residue, s.val_f] for s in cert.trace],
        "root": cert.root,
        "checks_passed": cert.checks_passed,
    }


def certificate_from_record(record: dict) -> HenselCertificate:
    """Inverse of :func:`certificate_to_record`.

    A ``K`` below 1, or one whose p**K is above ``2**MAX_MODULUS_BITS``,
    raises :class:`ValueError` before any power of p is built.
    """
    f = PadicPoly(record["p"], record["f"])
    p, k = f.p, int(record["K"])
    if k < 1:
        raise ValueError(f"K must be a positive integer, got {k}")
    _require_fit(p, k)
    a = Fraction(record["a"])
    e = int(record["e"])
    m = record["m"]
    t = record["t"]
    hyp = Hypothesis(e, None if m is None else int(m), None if t is None else int(t))
    trace = tuple(
        LiftStep(int(n), int(res), None if val is None else int(val))
        for n, res, val in record["trace"]
    )
    root = int(record["root"]) % _power(p, k)
    return HenselCertificate(p, f, a, k, hyp, trace, root, bool(record["checks_passed"]))
