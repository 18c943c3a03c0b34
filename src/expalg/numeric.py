"""Certified numerics for exponential polynomials.

Provides interval evaluation over boxes, an exact sign routine at rational
points, a search for a certified sign change on a fixed rational grid,
certified real root isolation in one variable, quadtree zero-cell sampling
in two variables, and a Jacobian-minor transversality check for the
single-exponential graph intersection.

Exact signs, fixed-point values of f and rigorous point boxes read f at a
rational point through ``EPoly.scaled_ints``, integers (M, T, {a: C_a})
with f = sum_a C_a e^(a / T) / M, and sum ``exp_fixed``'s integer bounds
for the e^(a / T) on one dyadic grid (``_exp_sum``).

The isolator keeps its cells as integers over one power-of-two denominator
and caches each end's float enclosure and exact sign by its integer.  It
settles a monotone cell (one whose derivative enclosure excludes zero) at
any width, by float enclosures of f at its endpoints or else by their exact
signs, and bisects the other cells; a cell whose endpoint enclosures
bracket a root needs no box test.  It then narrows each one-root bracket
by quadratic interval refinement whose first guess is the cell, on the
deepest level the floats resolve, that holds a root found in floats by the
Illinois method; below float resolution the guesses come from regula falsi
on fixed-point values of f.  Two exact signs prove each guessed cell.

The quadtree keeps a cell without enclosing it when its corners prove a
zero of f in it: an exact zero, or two point enclosures of opposite signs.
Its corner signs last for one call, so most kept cells cost no evaluation.

All box evaluation goes through one ``EvalPlan`` per function, compiled once
from an ``EPoly``: the terms in canonical order with their coefficient and
spectrum enclosures precomputed.  Fast and rigorous plans run one hand-written
loop on the float pairs of ``intervals`` that computes exactly what the
``pair_*`` operations would, bit for bit, without a call or a tuple per
operation.  Neither mode rounds an exact step: a first power is the
variable's bounds, a group without exponential is added without an exp, and
no exp enclosure reaches below 0.  One flag, ``rigorous``, selects the
evaluation from the command line down to the plans; rigorous evaluation
differs only in the exact value on a point box and in the two steps that
fast plans take from libm: powers above the first are exact, and exp is
``exp_fixed`` at the exact ends of its argument.
``TightEvaluator`` maps float bounds to one pair as a plan does, and its
mean-value step combines plan results with the ``pair_*`` operations.  The
transversality check ranks its Jacobian minors, EPolys too, by their float
values and encloses the decisive one with a plan.  Each box and cell, in
and out, is a sequence of float bounds (lo, hi), one per variable;
``Interval`` carries only the enclosures this module returns.
``TightEvaluator``, the root isolator and the transversality check keep
their plans for as long as they run, and a rigorous evaluator keeps the exp
enclosures it computed, one per distinct argument; nothing is cached
globally.

Root certificates come in three kinds.  ``SignChange`` encloses a root whose
existence follows from verified opposite signs at the endpoints (and whose
uniqueness from a derivative enclosure excluding zero).  ``NewtonContraction``
marks an exact rational root certified through a derivative enclosure; the
enclosure is the degenerate point interval.  ``UncertifiedTangential`` flags
leftover cells where the function may only touch zero (even multiplicity);
these are reported, never silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Sequence

from .epoly import EPoly
from .errors import (
    DimensionError,
    DriverError,
    HypothesisViolation,
    InternalInvariantError,
)
from .intervals import (
    RIGOROUS_BITS,
    Interval,
    Pair,
    ceil_float,
    enclose_exp,
    enclose_rational_pair,
    exp_fixed,
    float_down,
    float_up,
    floor_float,
    midpoint,
    pair_add,
    pair_mul,
    pair_pow_exact,
    ratio_down,
    ratio_up,
)
from .poly import Poly

#: width at which the isolator starts attempting endpoint-sign certificates
_CERT_WIDTH = Fraction(1, 8)
#: deepest bisection of the isolator: a cell there is kept as a suspect
_ISOLATE_MAX_DEPTH = 64
#: most Illinois steps of the float root search in ``_float_root``
_FLOAT_ROOT_STEPS = 64
#: order of ``TightEvaluator``'s mean-value form: gradients by the form one
#: level down, Hessian entries by natural extension
_TAYLOR_ORDER = 2
#: largest exp enclosure precision, in bits, that ``_one_sign_sums`` tries
_SIGN_MAX_BITS = 4096
#: relative precision of ``_fixed_value``, in bits
_FIXED_REL_BITS = 20
#: largest |t| for which a rigorous point box gets the exact value: beyond
#: it e^t is far outside the float range, and ``exp_fixed`` grows with t
_POINT_EXP_EDGE = 746


# ---------------------------------------------------------------------------
# Interval evaluation
# ---------------------------------------------------------------------------


class EvalPlan:
    """Interval evaluation of one EPoly, compiled once.

    The plan holds the terms in canonical order with their coefficient and
    spectrum enclosures precomputed as the tightest float pairs, and each
    spectrum entry also as an exact ratio.  A call computes the natural
    interval extension term by term, with the powers x_i^k it needs
    computed once and shared.

    Fast and rigorous plans run one hand-written kernel, ``__call__``, on
    local floats.  It reproduces ``pair_mul`` and ``pair_add`` of
    ``intervals``, and in a fast plan ``pair_pow`` and ``pair_exp``, bit for
    bit and in the same order, with the outward rounding inlined.  A product
    takes its endpoints from the sign-case table (Moore, Kearfott & Cloud,
    *Introduction to Interval Analysis*, SIAM 2009, section 2.2): two
    products when one factor has a known sign, and min/max of two when both
    straddle 0.  These differ from the min/max of all four products only in
    the sign of a zero, which the outward step erases.

    Both modes leave the exact steps unrounded.  Power slot i < n is x_i's
    own bounds, so only the powers x_i^k with k >= 2 are computed; a group
    without exponential is added as it is; and no exp enclosure has a lower
    end below 0, so its product with the group's value takes the first sign
    case alone.  The kernel's products and sums stay exactly ``pair_mul``
    and ``pair_add``: no lower end is +inf, and no upper end -inf.

    A ``rigorous`` plan differs in three steps: a point box gets the exact
    value sum_t C_t e^t / M (``EPoly.scaled_ints``, summed by ``_exp_sum``)
    rounded outward, so an exact zero gives (0, 0), unless some |t| exceeds
    746; powers x_i^k with k >= 2 come from ``pair_pow_exact``; and a
    group's exp is ``enclose_exp`` at the ends of its argument s . x,
    computed exactly at box corners.
    ``exps`` keeps the exp enclosures by argument (a ``TightEvaluator``
    gives all its plans one), so neighbouring boxes share them.
    """

    __slots__ = ("f", "rigorous", "powers", "groups", "exps")

    def __init__(self, f: EPoly, rigorous: bool = False, exps: dict | None = None):
        """Plan for f on its n variables; ``exps`` may be shared by plans of one spectrum."""
        self.f = f
        self.rigorous = rigorous
        self.exps = {} if exps is None else exps
        # A group is (spectrum pairs, terms, spectrum ratios): entries (i,
        # q_lo, q_hi) and (i, numerator, denominator), terms (c_lo, c_hi,
        # power slots).  Slot i < n is x_i itself, and each power x_i^k,
        # k >= 2, gets one slot after those.
        pair = enclose_rational_pair
        slots: dict[tuple[int, int], int] = {}  # (variable, exponent >= 2) -> slot

        def slot(i: int, k: int) -> int:
            return i if k == 1 else slots.setdefault((i, k), f.n + len(slots))

        self.groups = tuple(
            (
                tuple((i, *pair(q)) for i, q in enumerate(spec) if q),
                tuple((*pair(c), tuple(slot(i, k) for i, k in enumerate(mono) if k)) for mono, c in a.sorted_terms()),
                tuple((i, q.numerator, q.denominator) for i, q in enumerate(spec) if q),
            )
            for spec, a in f.sorted_terms()
        )
        self.powers = tuple(slots)

    def __call__(self, bounds: Sequence[Pair]) -> Pair:
        """Enclosure (lo, hi) over the box with the given float bounds."""
        nxt = math.nextafter
        inf = math.inf
        rigorous = self.rigorous
        if rigorous:
            if all(lo == hi for lo, hi in bounds):
                m, t_den, groups = self.f.scaled_ints([Fraction(lo) for lo, _ in bounds])
                edge = _POINT_EXP_EDGE * t_den
                if all(-edge <= a <= edge for a in groups):
                    lo, hi, work = _exp_sum(groups, t_den, RIGOROUS_BITS)
                    return (floor_float(lo, m << work), ceil_float(hi, m << work))
            pows = [*bounds, *(pair_pow_exact(bounds[i], k) for i, k in self.powers)]
            ends = [(lo.as_integer_ratio(), hi.as_integer_ratio()) for lo, hi in bounds]
            exps = self.exps
        else:
            pows = list(bounds)
            for i, k in self.powers:
                lo, hi = bounds[i]
                if k % 2 == 0 and lo <= 0.0 <= hi:
                    try:
                        hi = (hi if hi > -lo else -lo) ** k
                    except OverflowError:
                        hi = inf
                    pows.append((0.0, nxt(hi, inf)))
                    continue
                try:
                    lo = lo**k
                except OverflowError:
                    lo = -inf if lo < 0.0 and k % 2 else inf
                try:
                    hi = hi**k
                except OverflowError:
                    hi = -inf if hi < 0.0 and k % 2 else inf
                if hi < lo:
                    lo, hi = hi, lo
                pows.append((nxt(lo, -inf), nxt(hi, inf)))

        # A product's 0 * inf counts as 0.  A sum is never NaN and needs no
        # fix: no lower end is ever +inf, and no upper end -inf.
        acc_lo = acc_hi = 0.0
        for spec, terms, ratios in self.groups:
            v_lo = v_hi = 0.0
            for t_lo, t_hi, term_slots in terms:
                for k in term_slots:
                    p_lo, p_hi = pows[k]
                    if p_lo >= 0.0:
                        lo = t_lo * (p_lo if t_lo >= 0.0 else p_hi)
                        hi = t_hi * (p_hi if t_hi >= 0.0 else p_lo)
                    elif p_hi <= 0.0:
                        lo = t_hi * (p_lo if t_hi >= 0.0 else p_hi)
                        hi = t_lo * (p_hi if t_lo >= 0.0 else p_lo)
                    elif t_lo >= 0.0:
                        lo = p_lo * t_hi
                        hi = p_hi * t_hi
                    elif t_hi <= 0.0:
                        lo = p_hi * t_lo
                        hi = p_lo * t_lo
                    else:
                        lo = min(t_lo * p_hi, t_hi * p_lo)
                        hi = max(t_lo * p_lo, t_hi * p_hi)
                    if lo != lo:
                        lo = 0.0
                    if hi != hi:
                        hi = 0.0
                    t_lo = nxt(lo, -inf)
                    t_hi = nxt(hi, inf)
                v_lo = nxt(v_lo + t_lo, -inf)
                v_hi = nxt(v_hi + t_hi, inf)

            if not ratios:  # no exponential: the value is added as it is
                acc_lo = nxt(acc_lo + v_lo, -inf)
                acc_hi = nxt(acc_hi + v_hi, inf)
                continue
            if rigorous:
                # s . x is least at the corner with x_i low where s_i > 0
                # and high where s_i < 0, and greatest at the opposite one.
                ln = hn = 0
                ld = hd = 1
                for i, n, d in ratios:
                    (a, b), (c, e) = ends[i] if n > 0 else ends[i][::-1]
                    ln, ld = ln * d * b + n * a * ld, ld * d * b
                    hn, hd = hn * d * e + n * c * hd, hd * d * e
                e_lo = (exps.get((ln, ld)) or exps.setdefault((ln, ld), enclose_exp(ln, ld)))[0]
                e_hi = (exps.get((hn, hd)) or exps.setdefault((hn, hd), enclose_exp(hn, hd)))[1]
            else:
                d_lo = d_hi = 0.0
                for i, q_lo, q_hi in spec:
                    x_lo, x_hi = bounds[i]
                    if q_lo >= 0.0:
                        lo = x_lo * (q_lo if x_lo >= 0.0 else q_hi)
                        hi = x_hi * (q_hi if x_hi >= 0.0 else q_lo)
                    else:  # a nonzero rational's pair has a sign
                        lo = x_hi * (q_lo if x_hi >= 0.0 else q_hi)
                        hi = x_lo * (q_hi if x_lo >= 0.0 else q_lo)
                    if lo != lo:
                        lo = 0.0
                    if hi != hi:
                        hi = 0.0
                    d_lo = nxt(d_lo + nxt(lo, -inf), -inf)
                    d_hi = nxt(d_hi + nxt(hi, inf), inf)
                # exp, padded by two ulps, with its lower end clamped at 0
                # where an underflow took it below: e^x > 0.
                try:
                    e_lo = math.exp(d_lo)
                except OverflowError:
                    e_lo = inf
                try:
                    e_hi = math.exp(d_hi)
                except OverflowError:
                    e_hi = inf
                e_lo = nxt(nxt(e_lo, -inf), -inf)
                if e_lo < 0.0:
                    e_lo = 0.0
                e_hi = nxt(nxt(e_hi, inf), inf)

            # 0 <= e_lo < inf and e_hi > 0, so one sign case: lo is never
            # NaN, as e_lo is finite and e_hi meets only v_lo < 0.
            lo = v_lo * (e_lo if v_lo >= 0.0 else e_hi)
            hi = v_hi * (e_hi if v_hi >= 0.0 else e_lo)
            if hi != hi:
                hi = 0.0
            acc_lo = nxt(acc_lo + nxt(lo, -inf), -inf)
            acc_hi = nxt(acc_hi + nxt(hi, inf), inf)
        return (acc_lo, acc_hi)


def _sign(enclosure: Pair) -> int:
    """The sign of every value in the enclosure, or 0 when it holds 0."""
    return 1 if enclosure[0] > 0.0 else -1 if enclosure[1] < 0.0 else 0


def interval_eval(f: EPoly, bounds: Sequence[Pair], rigorous: bool = False) -> Interval:
    """Enclosure of f over the box with the given float bounds (lo, hi).

    By default it uses outward-rounded hardware floats; ``rigorous``
    certifies powers and exp too, and evaluates a point box exactly (see
    ``EvalPlan``).  Every side must satisfy lo <= hi, which a NaN end does
    not.  Rigorous evaluation takes the exact value of every end, so it
    needs finite sides; the fast mode also accepts infinite ones.  Callers
    that evaluate one function on many boxes should keep an ``EvalPlan``.
    """
    if len(bounds) != f.n:
        raise DimensionError(f"box dimension {len(bounds)} != ambient {f.n}")
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    for lo, hi in bounds:
        if not lo <= hi:
            raise ValueError(f"invalid interval [{lo}, {hi}]")
        if rigorous and not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"rigorous evaluation needs finite sides, not [{lo}, {hi}]")
    return Interval(*EvalPlan(f, rigorous)(bounds))


class TightEvaluator:
    """Evaluation over a box: natural extension intersected with mean-value forms.

    Like an ``EvalPlan``, it maps the float bounds of a box to one enclosure
    (lo, hi).  The mean-value form f(c) + grad f(box) . (box - c) is a sound
    enclosure (mean value theorem along the segment to the midpoint) with
    quadratic instead of linear overestimation in the box width.  On
    canonical expanded polynomials the gradients themselves suffer from
    heavy interval dependency, so their enclosures are computed by the same
    form one level down (Hessian entries by natural extension).  ``plans``
    holds one ``EvalPlan`` per sorted path of variables, the derivative
    along it; each is derived on first use from the function of its path
    without the last variable.  The recursion shares the midpoint box and
    one natural extension per path (d2f/dx1dx2 serves both gradient rows);
    a caller hands in those it has.  Nothing is kept between calls.
    """

    def __init__(self, f: EPoly, rigorous: bool = False):
        self.n = f.n
        self.rigorous = rigorous
        # Derivatives keep the spectrum, so the plans share exp enclosures.
        self.exps: dict = {}
        self.plans: dict[tuple[int, ...], EvalPlan] = {(): EvalPlan(f, rigorous, self.exps)}

    def __call__(self, bounds: Sequence[Pair], nats: dict | None = None) -> Pair:
        """Enclosure (lo, hi) over the box with the given float bounds;
        ``nats`` holds natural extensions on it already known, by path."""
        if len(bounds) != self.n:
            raise DimensionError(f"box dimension {len(bounds)} != ambient {self.n}")
        return self._eval((), bounds, [], {} if nats is None else nats, _TAYLOR_ORDER)

    def plan(self, path: tuple[int, ...]) -> EvalPlan:
        """The plan of the derivative along ``path`` (sorted variable indices)."""
        # d/dx_i commute, so each sorted path is derived once, from its prefix.
        plan = self.plans.get(path)
        if plan is None:
            g = self.plan(path[:-1]).f.derivative(path[-1])
            plan = self.plans[path] = EvalPlan(g, self.rigorous, self.exps)
        return plan

    def _eval(self, path, bounds: Sequence[Pair], centre: list, nats: dict, depth: int) -> Pair:
        """``centre`` caches (midpoint bounds, box - midpoint) for this box,
        and ``nats`` its natural extensions by path."""
        plan = self.plan(path)
        nat = nats.get(path)
        if nat is None:
            nat = nats[path] = plan(bounds)
        if depth == 0 or nat[0] > 0.0 or nat[1] < 0.0 or nat[1] - nat[0] < 1e-14:
            return nat
        if not centre:
            mids = [midpoint(lo, hi) for lo, hi in bounds]
            if any(m != m for m in mids):
                raise ValueError("box midpoint is not a number")
            centre.append([(m, m) for m in mids])
            centre.append([pair_add(iv, (-m, -m)) for iv, m in zip(bounds, mids)])
        mid_bounds, offsets = centre
        mv = plan(mid_bounds)
        for i, (iv, off) in enumerate(zip(bounds, offsets), start=1):
            if iv[1] - iv[0] == 0.0:
                continue
            gi = self._eval(tuple(sorted(path + (i,))), bounds, centre, nats, depth - 1)
            mv = pair_add(mv, pair_mul(gi, off))
        lo = max(nat[0], mv[0])
        hi = min(nat[1], mv[1])
        if lo > hi:
            raise InternalInvariantError("sound enclosures are disjoint")
        return (lo, hi)


# ---------------------------------------------------------------------------
# Exact sign at rational points
# ---------------------------------------------------------------------------


def sign_at_rational(f: EPoly, pt: Sequence) -> int:
    """Exact sign of f at a rational point: -1, 0 or +1.

    The value is sum_a C_a e^(a / T) / M with M > 0, distinct exponents
    a / T and integer C_a (``EPoly.scaled_ints``, whose kernel each EPoly
    compiles once).  The sum is zero exactly when every C_a is zero;
    otherwise the value is nonzero, so ``_exp_sum``'s integer bounds at
    doubling precision must eventually separate it from zero: the first
    bounds of one sign from ``_one_sign_sums`` give it.
    """
    _, t_den, groups = f.scaled_ints([Fraction(v) for v in pt])
    if not groups:
        return 0
    for lo, _, _ in _one_sign_sums(groups, t_den):
        return 1 if lo > 0 else -1
    raise InternalInvariantError("sign refinement exhausted precision budget")


def _one_sign_sums(groups: dict[int, int], t_den: int):
    """``_exp_sum``'s bounds (lo, hi, w) that exclude 0, at doubling
    precision from ``RIGOROUS_BITS`` up to ``_SIGN_MAX_BITS``.

    The one precision loop of exact signs and fixed-point values: bounds
    that hold 0 are skipped, and the budget ends the iteration.
    """
    bits = RIGOROUS_BITS
    while bits <= _SIGN_MAX_BITS:
        lo, hi, w = _exp_sum(groups, t_den, bits)
        if lo > 0 or hi < 0:
            yield lo, hi, w
        bits *= 2


def _exp_sum(groups: dict[int, int], t_den: int, bits: int) -> tuple[int, int, int]:
    """Integer bounds (lo, hi, w) with lo / 2^w <= sum_a C_a e^(a / t_den) <= hi / 2^w.

    Each e^(a / t_den) but e^0 = 1 is enclosed by ``exp_fixed`` at ``bits``,
    on its own dyadic grid; every bound is shifted onto the finest grid, w,
    so the sums are exact.  ``exp_fixed`` depends on a / t_den alone, so an
    unreduced exponent gives the same bounds.
    """
    terms = []
    for a, c in groups.items():
        if a:
            e_lo, e_hi, work = exp_fixed(a, t_den, bits)
            terms.append((c * e_lo, c * e_hi, work) if c > 0 else (c * e_hi, c * e_lo, work))
        else:
            terms.append((c, c, 0))
    w = max((work for _, _, work in terms), default=0)
    return sum(lo << (w - work) for lo, _, work in terms), sum(hi << (w - work) for _, hi, work in terms), w


def _fixed_value(f: EPoly, x: Fraction) -> tuple[int, int, int] | None:
    """Integer bounds (lo, hi, d) with lo / d <= f(x) <= hi / d, d > 0, of one
    sign and within 2^-``_FIXED_REL_BITS`` of each other relatively, or None.

    The first bounds from ``_one_sign_sums`` that are that close; None when
    f(x) is 0 or ``_SIGN_MAX_BITS`` do not reach that precision.
    """
    m, t_den, groups = f.scaled_ints([x])
    for lo, hi, w in _one_sign_sums(groups, t_den):
        if (hi - lo) << _FIXED_REL_BITS <= min(abs(lo), abs(hi)):
            return lo, hi, m << w
    return None


#: coordinates of the sign-change grid, nearest the origin first, with their
#: float values; every grid point lies in [-8, 8]^n
SIGN_GRID = tuple(
    (Fraction(s * k, 3), s * k / 3) for k in (1, 4, 10, 22) for s in (1, -1)
)


def certified_sign_change(f: EPoly) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]] | None:
    """Rational points (a, b) with f(a) < 0 < f(b) by exact signs, or None.

    Scans the grid of ``SIGN_GRID`` coordinates in each of the n variables,
    in a fixed order.  The float value picks the candidates: points where it
    overflows, is not finite or is 0 are skipped.  The first candidate of
    each float sign is certified with ``sign_at_rational``; one whose exact
    sign is 0 or differs is dropped and the scan goes on.  The grid is
    finite, so the work is bounded.
    """
    value = f.float_evaluator()
    found: dict[int, tuple[Fraction, ...]] = {}
    for pt in iter_product(SIGN_GRID, repeat=f.n):
        try:
            v = value([c for _, c in pt])
        except OverflowError:
            continue
        if not math.isfinite(v) or v == 0.0:
            continue
        s = 1 if v > 0.0 else -1
        if s in found:
            continue
        exact = tuple(q for q, _ in pt)
        if sign_at_rational(f, exact) == s:
            found[s] = exact
            if len(found) == 2:
                return found[-1], found[1]
    return None


# ---------------------------------------------------------------------------
# 1-D root isolation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootCert:
    """Certified enclosure of one real root (or an uncertified leftover)."""

    enclosure: Interval
    kind: str  # SignChange | NewtonContraction | UncertifiedTangential
    residual_bound: float


def default_root_domain(f: EPoly) -> tuple[float, float]:
    """Crude symmetric search domain from the coefficient height.

    It is no root bound: x1^7 - 3*x1 + 1 - e^x1 has a root near 21.46,
    outside its domain [-8, 8].  Yet ``classify``'s one-variable verdicts
    still take the roots found on it as all of them.
    """
    h = max(8, 2 * f.coefficient_height())
    return (-float(h), float(h))


def isolate_roots_1d(
    f: EPoly,
    domain: tuple[float, float],
    tol: float = 1e-9,
) -> tuple[list[RootCert], list[RootCert]]:
    """Certified root isolation on a finite interval.

    Adaptive bisection of the domain.  A cell on which the derivative's
    enclosure excludes zero is monotone, so it holds at most one root, and
    it is settled at once, whatever its width.  It is dropped when the
    float enclosures of f at both endpoints exclude zero with one sign;
    otherwise the exact signs (``sign_at_rational``) of its endpoints
    decide: opposite signs make it a one-root bracket, equal ones drop it.
    Any other cell is dropped when its interval value (``TightEvaluator``)
    excludes zero, gets endpoint signs once it is at most ``_CERT_WIDTH``
    wide, and is bisected on.  A cell whose endpoint enclosures exclude zero
    with opposite signs holds a root, so no sound enclosure of f on it
    excludes zero (on the libm trust of the fast plan): it skips the box
    test.  Exact rational roots (for instance at 0) are detected by a zero
    sign and certified as point enclosures.  Each bracket is then narrowed
    by ``_refine_bracket``: quadratic interval refinement on the monotone
    cells, and bisection on merged runs of suspect cells.  A merged run with
    opposite end signs becomes one ``SignChange`` whose uniqueness is not
    proven: it may hold several roots, and it reports one.  Returns
    (certified, uncertified) lists, both sorted by position, with pairwise
    disjoint certified enclosures of width at most ``tol``, which must be
    positive and finite; so must the domain's ends.

    Cell ends are integers over one denominator D = L 2^64, L the common
    denominator of the domain's ends (a power of two for float ends), so a
    cell is halved exactly by ``(lo + hi) >> 1`` down to the depth limit of
    64.  Each end's float enclosure and exact sign are cached by its
    integer; Fractions are built only for brackets, suspects and exact
    roots.

    The result is that of plain bisection that takes signs only on cells at
    most ``_CERT_WIDTH`` wide.  There a one-root bracket ends as the cell
    holding the root on the first level of the domain's bisection grid
    whose cells are at most ``tol`` and at most ``_CERT_WIDTH`` wide, or as
    the root itself when it is a grid point of that level or a coarser one;
    so does a wider monotone bracket here.  The natural extension of f' is
    inclusion-isotone, so in that bisection every descendant of a monotone
    cell would be monotone too and would settle the same way.  When the
    grid reaches width ``tol / 4`` or depth ``_ISOLATE_MAX_DEPTH`` before
    ``_CERT_WIDTH``, that bisection settles no cell, and neither does this
    one.
    """
    if f.n != 1:
        raise DimensionError("root isolation requires a 1-variable input")
    if f.is_zero():
        raise HypothesisViolation("function is identically zero")
    if not all(math.isfinite(v) for v in domain):
        raise ValueError("domain endpoints must be finite")
    a = Fraction(domain[0])
    b = Fraction(domain[1])
    if not a < b:
        raise ValueError("domain must be a nonempty interval")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("root tolerance must be positive and finite")
    tol_q = Fraction(tol)
    # The domain's bisection grid reaches _CERT_WIDTH at depth cert_depth,
    # where its cells are cert_w wide.  Monotone cells settle only if the
    # grid gets there within the depth limit and no later than to width
    # tol / 4, where cells become suspects.  A domain at most 1/8 wide
    # counts as later when tol >= 8 cert_w; its one cell then ends as a
    # suspect, with the same result.
    cert_w, cert_depth = b - a, 0
    while cert_w > _CERT_WIDTH:
        cert_w /= 2
        cert_depth += 1
    settle = cert_depth <= _ISOLATE_MAX_DEPTH and 8 * cert_w > tol_q
    evaluator = TightEvaluator(f)
    f_plan = evaluator.plan(())
    df_plan = evaluator.plan((1,))

    # A cell is (lo, hi) over den; it is a suspect once 4 (hi - lo) <= tol den.
    den = math.lcm(a.denominator, b.denominator) << _ISOLATE_MAX_DEPTH
    suspect_width = tol_q.numerator * den // (4 * tol_q.denominator)
    end_signs: dict[int, int] = {}  # exact sign of f at a cell end
    enclosed: dict[int, int] = {}  # sign of f's point enclosure there, 0 if it holds 0
    fine_signs: dict[Fraction, int] = {}  # exact sign of f off the cell grid

    def end_sign(n: int) -> int:
        s = end_signs.get(n)
        if s is None:
            s = end_signs[n] = sign_at_rational(f, [Fraction(n, den)])
        return s

    def enclosed_sign(n: int) -> int:
        s = enclosed.get(n)
        if s is None:
            s = enclosed[n] = _sign(f_plan([(ratio_down(n, den), ratio_up(n, den))]))
        return s

    def sgn(x: Fraction) -> int:
        q, r = divmod(den, x.denominator)
        if not r:
            return end_sign(x.numerator * q)
        s = fine_signs.get(x)
        if s is None:
            s = fine_signs[x] = sign_at_rational(f, [x])
        return s

    def deriv_nonzero(lo: Fraction, hi: Fraction) -> bool:
        return _sign(df_plan([(float_down(lo), float_up(hi))])) != 0

    def cert(kind: str, lo: Fraction, hi: Fraction) -> RootCert:
        enc = Interval(float_down(lo), float_up(hi))
        rlo, rhi = f_plan([(enc.lo, enc.hi)])
        return RootCert(enc, kind, max(abs(rlo), abs(rhi)))

    zero_ends: set[int] = set()
    brackets: list[tuple[Fraction, Fraction, bool]] = []  # (lo, hi, one_root)
    suspects: list[tuple[int, int]] = []
    stack = [(a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), 0)]
    while stack:
        lo, hi, depth = stack.pop()
        cell = [(ratio_down(lo, den), ratio_up(hi, den))]
        # f on a monotone cell lies between its values at the ends, so the
        # cell needs no box test, and neither does a cell whose ends bracket
        # a root.  The box test reuses the derivative's natural extension.
        nats = {(1,): df_plan(cell)} if settle else {}
        monotone = settle and _sign(nats[(1,)]) != 0
        if monotone:
            if enclosed_sign(lo) * enclosed_sign(hi) > 0:
                continue
        elif enclosed_sign(lo) * enclosed_sign(hi) >= 0 and _sign(evaluator(cell, nats)):
            continue
        width = hi - lo
        if monotone or 8 * width <= den:
            s_lo, s_hi = end_sign(lo), end_sign(hi)
            zero_ends.update(x for x, s in ((lo, s_lo), (hi, s_hi)) if s == 0)
            if monotone:
                # At most one root, position decided by signs.
                if s_lo * s_hi < 0:
                    brackets.append((Fraction(lo, den), Fraction(hi, den), True))
                continue
        if width <= suspect_width or depth >= _ISOLATE_MAX_DEPTH:
            suspects.append((lo, hi))
            continue
        mid = (lo + hi) >> 1
        stack.append((mid, hi, depth + 1))
        stack.append((lo, mid, depth + 1))

    uncertified: list[RootCert] = []
    for lo, hi in _merge_cells(suspects):
        if any(lo <= r <= hi for r in zero_ends):
            continue  # covered by an exact-root certificate
        if end_sign(lo) * end_sign(hi) < 0:
            brackets.append((Fraction(lo, den), Fraction(hi, den), False))
        elif not deriv_nonzero(Fraction(lo, den), Fraction(hi, den)):  # equal signs, not monotone: f may touch 0
            uncertified.append(cert("UncertifiedTangential", Fraction(lo, den), Fraction(hi, den)))

    # Every bracket is settled in this one loop, after the suspect cells were
    # checked against the exact roots.  The bisection leaves partition the
    # domain, a bracket is one leaf or a merged run of suspect leaves with no
    # exact root in it, and its endpoints have nonzero signs.  So the rational
    # root a bracket may collapse onto lies in no suspect cell and in no other
    # bracket, and no exact root lies in a SignChange enclosure.
    exact_roots = {Fraction(n, den) for n in zero_ends}
    certs: list[RootCert] = []
    value = f.float_evaluator()
    one_root_tol = min(tol_q, cert_w)
    for lo, hi, one_root in brackets:
        lo, hi = _refine_bracket(f, sgn, value, lo, hi, one_root_tol if one_root else tol_q, one_root)
        if lo == hi:
            exact_roots.add(lo)
        else:
            certs.append(cert("SignChange", lo, hi))

    h = max(tol_q / 2, Fraction(1, 1 << 40))
    for x in sorted(exact_roots):
        if deriv_nonzero(x - h, x + h):
            enc = Interval(float_down(x), float_up(x))
            certs.append(RootCert(enc, "NewtonContraction", 0.0))
        else:
            uncertified.append(cert("UncertifiedTangential", x - h, x + h))

    certs.sort(key=lambda r: r.enclosure.lo)
    for r1, r2 in zip(certs, certs[1:]):
        if r1.enclosure.hi >= r2.enclosure.lo:
            raise InternalInvariantError("certified enclosures overlap")
    return certs, sorted(uncertified, key=lambda r: r.enclosure.lo)


def _refine_bracket(f: EPoly, sgn, value, lo: Fraction, hi: Fraction, tol: Fraction, one_root: bool):
    """Bisection's answer for the bracket [lo, hi], by quadratic interval refinement.

    The endpoint signs must be nonzero and opposite.  Bisection halves the
    bracket until its width is at most ``tol``, k levels down, and returns
    (mid, mid) at the first midpoint whose exact sign is 0.  On a bracket
    with one simple root r (``one_root``) that answer depends on r alone:
    (r, r) when r lies on the level-k grid lo + j (hi - lo) / 2^k, otherwise
    the level-k cell containing r.  So each step guesses the cell of r among
    N = 2^m equal cells and proves the guess by the exact signs (``sgn``) of
    the cell's endpoints, which are grid points of level at most k (Abbott,
    "Quadratic interval refinement for real roots", 2014).  A proven guess
    doubles m, a refuted one halves it, and m = 1 is a bisection step.

    While the floats resolve at least two levels of the bracket, m is capped
    one level above the deepest level whose cells they resolve: cells there
    are about one ulp wide, and a float root may miss r by about as much.
    So at two resolved levels the step bisects, and from three on the guess
    is the cell, found exactly with Fractions, that holds a float root of
    ``value`` (``_float_root``).  The first guess takes m = k, so on a
    bracket the floats resolve one level below width ``tol`` the two signs
    of one cell settle it.  When the float values overflow,
    are not finite or do not have strictly opposite signs, the step bisects.
    Below float resolution the guess is regula falsi on fixed-point values
    of f at the bracket's ends (``_fixed_value``, each within 2^-20
    relatively), the first such guess taking at most log2(1 / w) - 3 levels
    of a bracket w wide, and m is capped at the levels those values resolve.
    A bracket not known to hold one root (a merged run of suspect cells,
    where bisection's answer depends on its path) is only bisected.
    """
    s_lo, s_hi = sgn(lo), sgn(hi)
    if s_lo * s_hi >= 0:
        raise InternalInvariantError("refine_bracket needs opposite endpoint signs")
    # k, the first level whose cells are at most tol wide: the least k with
    # 2^k >= ceil((hi - lo) / tol)
    ratio = (hi - lo) / tol
    levels = (-(-ratio.numerator // ratio.denominator) - 1).bit_length()
    m = levels
    root = None  # a float root of value, kept while it lies in [lo, hi]
    values: dict[Fraction, tuple[int, int, int] | None] = {}  # fixed-point values of f
    while levels:
        m = min(m, levels)
        guess = None  # the root's position in [lo, hi], as (numerator, denominator)
        if one_root and m > 1:
            x_lo, x_hi = float(lo), float(hi)
            resolved = _resolved_levels(x_lo, x_hi)
            if resolved >= 2:
                m = min(m, resolved - 1)
                if m > 1 and (root is None or not x_lo <= root <= x_hi):
                    root = _float_root(value, x_lo, x_hi)
                if m > 1 and root is not None:
                    pos = (Fraction(root) - lo) / (hi - lo)
                    guess = (pos.numerator, pos.denominator)
            else:
                if not values:
                    # The first guess below float resolution: the secant
                    # misses the root by about w / 8 of a bracket w wide
                    # where |f'' / f'| is near 1, so it takes at most
                    # log2(1 / w) - 3 levels.
                    w = hi - lo
                    m = min(levels, max(2, (w.denominator // w.numerator).bit_length() - 4))
                for x in (lo, hi):
                    if x not in values:
                        values[x] = _fixed_value(f, x)
                if values[lo] and values[hi]:
                    guess, resolved = _secant_position(values[lo], values[hi])
                    m = min(m, resolved)
        if guess is None or m < 2:
            mid = (lo + hi) / 2
            s_mid = sgn(mid)
            if s_mid == 0:
                # Exact rational root in the middle; shrink to the point.
                return mid, mid
            if s_mid == s_lo:
                lo = mid
            else:
                hi = mid
            levels -= 1
            m = 2
            continue
        cells = 1 << m
        j = min(max(cells * guess[0] // guess[1], 0), cells - 1)
        width = (hi - lo) / cells
        a, b = lo + j * width, lo + (j + 1) * width
        s_a = sgn(a)
        if s_a == 0:
            return a, a
        if s_a == s_lo:
            s_b = sgn(b)
            if s_b == 0:
                return b, b
            if s_b == s_hi:
                lo, hi = a, b
                levels -= m
                m *= 2
                continue
        m //= 2
    return lo, hi


def _secant_position(v_lo: tuple[int, int, int], v_hi: tuple[int, int, int]) -> tuple[tuple[int, int], float]:
    """Regula falsi on ``_fixed_value`` bounds at a bracket's two ends: the
    secant's zero as a fraction (n, d) of the bracket, and the levels it
    resolves.

    With A and B the midpoints of the value bounds, of opposite signs, the
    zero lies at |A| / (|A| + |B|).  If each value is known to 2^-e
    relatively, that fraction is known to 2^-(e + 1), so 2^(e - 1) equal
    cells are each four times wider than its error.
    """
    (al, ah, ad), (bl, bh, bd) = v_lo, v_hi
    wa, wb = abs(al + ah) * bd, abs(bl + bh) * ad
    e = min(_relative_bits(al, ah), _relative_bits(bl, bh))
    return (wa, wa + wb), e - 1


def _relative_bits(lo: int, hi: int) -> float:
    """A lower bound for e with hi - lo <= 2^-e min(|lo|, |hi|), for bounds of
    one sign; inf where they are equal (a value without exponential)."""
    if lo == hi:
        return math.inf
    return min(abs(lo), abs(hi)).bit_length() - (hi - lo).bit_length() - 1


def _resolved_levels(x_lo: float, x_hi: float) -> int:
    """The largest r such that 2^r equal cells of [x_lo, x_hi] are each wider
    than one ulp of its larger endpoint: the levels the floats resolve."""
    ulps = (x_hi - x_lo) / math.ulp(max(abs(x_lo), abs(x_hi)))
    if not math.isfinite(ulps):
        return 0
    frac, exp = math.frexp(ulps)  # ulps = frac 2^exp with 1/2 <= frac < 1, or 0
    return exp - 1 if frac > 0.5 else exp - 2


def _float_root(value, x_lo: float, x_hi: float) -> float | None:
    """A float root of ``value`` in [x_lo, x_hi] by the Illinois method.

    Regula falsi where an end kept twice in a row has its value halved
    (Dowell & Jarratt, *BIT* 11, 1971), for at most ``_FLOAT_ROOT_STEPS``
    steps; a step whose secant point is not strictly inside the bracket
    bisects it, and the search ends at a zero value or when the bracket has
    no float strictly inside.  Returns the zero or the midpoint of the last
    bracket, or None when a value overflows or is not finite or the end
    values do not have strictly opposite signs.
    """
    try:
        v_lo, v_hi = value([x_lo]), value([x_hi])
        if not (math.isfinite(v_lo) and math.isfinite(v_hi) and (v_lo < 0.0 < v_hi or v_hi < 0.0 < v_lo)):
            return None
        kept = 0  # -1: lo was kept last step, +1: hi was
        for _ in range(_FLOAT_ROOT_STEPS):
            x = x_lo + (x_hi - x_lo) * (v_lo / (v_lo - v_hi))
            if not x_lo < x < x_hi:
                x = 0.5 * x_lo + 0.5 * x_hi
                if not x_lo < x < x_hi:
                    break
            v = value([x])
            if not math.isfinite(v):
                return None
            if v == 0.0:
                return x
            if (v < 0.0) == (v_lo < 0.0):
                x_lo, v_lo = x, v
                if kept == 1:
                    v_hi *= 0.5
                kept = 1
            else:
                x_hi, v_hi = x, v
                if kept == -1:
                    v_lo *= 0.5
                kept = -1
    except OverflowError:
        return None
    return 0.5 * x_lo + 0.5 * x_hi


def _merge_cells(cells: list[tuple[int, int]]):
    merged: list[list[int]] = []
    for lo, hi in sorted(cells):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


# ---------------------------------------------------------------------------
# 2-D zero-cell sampling
# ---------------------------------------------------------------------------


def sample_zero_cells_2d(
    f: EPoly, bounds: Sequence[Pair], max_depth: int, rigorous: bool = False
) -> list[tuple[Pair, Pair]]:
    """Quadtree cells at depth ``max_depth`` whose interval value contains 0.

    The box and each returned cell are float bounds ((x_lo, x_hi), (y_lo,
    y_hi)).  The union of returned cells is a guaranteed superset of the
    zero set inside the box (inclusion monotonicity of interval
    evaluation), and cells kept at depth d+1 always lie inside cells kept at
    depth d.  Output is sorted by coordinates.  ``max_depth`` must be
    nonnegative, and every side of the box finite, of positive width and
    wide enough to halve where needed with each midpoint strictly inside:
    else a cell's halves would repeat it or be degenerate.

    A cell is kept unevaluated when a corner is an exact zero (the
    ``EPoly.scaled_ints`` map is empty) or two corners' point enclosures
    have opposite signs: f vanishes in the convex cell, so no sound
    enclosure of it (fast evaluation: on the usual libm trust) excludes 0,
    and the cells are the same.  Corner signs last for the call.  Other
    cells go when f's natural extension excludes 0; else their missing
    corners are evaluated, and last the ``TightEvaluator`` decides.
    """
    if f.n != 2:
        raise DimensionError("cell sampling requires a 2-variable input")
    if f.is_zero():
        raise HypothesisViolation("function is identically zero")
    if len(bounds) != 2:
        raise DimensionError("box must be 2-dimensional")
    if max_depth < 0:
        raise ValueError("quadtree depth must be nonnegative")
    box = tuple((float(lo), float(hi)) for lo, hi in bounds)
    if not all(math.isfinite(v) for side in box for v in side):
        raise ValueError("box sides must be finite")
    if not all(lo < hi for lo, hi in box):
        raise ValueError("box sides must be nonempty intervals")

    evaluator = TightEvaluator(f, rigorous)
    f_plan = evaluator.plan(())
    # corner -> sign of f there, None if undecided; -0.0 and 0.0 are one point
    corners: dict[Pair, int | None] = {}

    def corner_sign(x: float, y: float) -> int | None:
        s = _sign(f_plan(((x, x), (y, y))))
        if s:
            return s
        return None if f.scaled_ints((Fraction(x), Fraction(y)))[2] else 0

    out: list[tuple[Pair, Pair]] = []
    stack = [(box, 0)]
    while stack:
        cell, depth = stack.pop()
        (x_lo, x_hi), (y_lo, y_hi) = cell
        points = ((x_lo, y_lo), (x_lo, y_hi), (x_hi, y_lo), (x_hi, y_hi))
        if not _holds_zero({corners[p] for p in points if p in corners}):
            nat = f_plan(cell)
            if _sign(nat):
                continue
            signs = set()
            for p in points:  # the missing corners, until they prove a zero
                if p not in corners:
                    corners[p] = corner_sign(*p)
                signs.add(corners[p])
                if _holds_zero(signs):
                    break
            else:
                if _sign(evaluator(cell, {(): nat})):
                    continue
        if depth >= max_depth:
            out.append(cell)
            continue
        xm, ym = midpoint(x_lo, x_hi), midpoint(y_lo, y_hi)
        if not (x_lo < xm < x_hi and y_lo < ym < y_hi):
            raise ValueError("box sides are too narrow to halve max_depth times")
        for x in ((x_lo, xm), (xm, x_hi)):
            stack.append(((x, (y_lo, ym)), depth + 1))
            stack.append(((x, (ym, y_hi)), depth + 1))
    out.sort(key=lambda c: (c[0][0], c[1][0]))
    return out


def _holds_zero(signs: set) -> bool:
    """Whether corner signs prove a zero in their cell: a 0, or both signs."""
    return 0 in signs or (1 in signs and -1 in signs)


# ---------------------------------------------------------------------------
# Transversality at lifted roots (single-exponential graph)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransversalityReport:
    point: tuple[float | None, ...]
    jacobian_rank_lower_bound: int
    tangency_margin: float | None
    verdict: str  # Transverse | Undetermined


def check_transversality(
    p: Poly,
    root: RootCert,
    other_coords: Sequence = (),
    tol: float = 1e-6,
) -> TransversalityReport:
    """Non-tangency of Z(p) and the graph {u1 = e^{x1}} at a lifted root.

    The lifted point is z = (x1, x2.., xn, e^{x1}) with x1 taken from the
    root enclosure and the remaining coordinates supplied exactly.  The check
    compares the gradient rows of p and of u1 - e^{x1}.  Along the graph,
    with f = p(x, e^{x1}), the chain rule makes every nonzero 2x2 minor of
    these rows an exponential polynomial in x, of one of three kinds:

    - columns (x1, xj), j >= 2: e^{x1} df/dxj;
    - columns (x1, u1): df/dx1 = p_x1 + e^{x1} p_u1;
    - columns (xj, u1), j >= 2: df/dxj = p_xj.

    Every other minor is identically 0.  The reported margin is the first
    largest |minor| at the midpoint, in that order (for n = 1 it is
    |f'(x1)|), and the verdict is Transverse only when the margin exceeds
    ``tol`` and an interval evaluation of that decisive minor over the
    enclosure and the outward-rounded coordinates excludes zero (certified
    non-parallel gradients).

    When a minor's float value at the midpoint overflows or is not finite,
    there is no margin to rank the minors by: the verdict is Undetermined
    with rank bound 1 and margin None.  The point's u1 entry is None when
    e^{x1} itself overflows.

    Enclosures containing x1 = 0 violate the hypothesis and raise, and so
    does a ``tol`` that is not finite and nonnegative.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("transversality tolerance must be finite and nonnegative")
    n = p.n
    if any(p.degree_in("u", j) > 0 for j in range(2, n + 1)):
        raise DriverError("transversality check requires dependence on u1 only")
    if len(other_coords) != n - 1:
        raise DimensionError(f"expected {n - 1} extra coordinates")
    enc = root.enclosure
    if enc.contains_zero():
        raise HypothesisViolation(
            "root enclosure contains x1 = 0, excluded by the non-tangency hypothesis"
        )

    mid = [enc.mid, *(float(v) for v in other_coords)]
    try:
        u = math.exp(mid[0])
    except OverflowError:
        u = None
    z = (*mid, u)
    f = EPoly.from_poly(p)
    df = [f.derivative(j) for j in range(1, n + 1)]
    e1 = EPoly.from_poly(Poly.var(n, "u", 1))
    # columns (x1, xj), then (x1, u1), then (xj, u1): the scan order
    minors = [e1 * d for d in df[1:]] + df

    try:
        values = [abs(minor.eval_float(mid)) for minor in minors]
    except OverflowError:
        values = [math.inf]
    if not all(math.isfinite(v) for v in values):
        return TransversalityReport(z, 1, None, "Undetermined")
    margin = max(values)

    # Interval cross-check of the decisive minor, the first largest.
    transverse = False
    if margin > tol:
        bounds = [(enc.lo, enc.hi), *(enclose_rational_pair(v) for v in other_coords)]
        transverse = _sign(EvalPlan(minors[values.index(margin)])(bounds)) != 0
    return TransversalityReport(
        point=z,
        jacobian_rank_lower_bound=2 if transverse else 1,
        tangency_margin=margin,
        verdict="Transverse" if transverse else "Undetermined",
    )
