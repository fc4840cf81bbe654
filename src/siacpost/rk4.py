"""Exact RK4 step operators of the DG scheme, each entry rounded once into floats hi + lo.

`dg.advance` composes every distinct operator of a run here, in batched passes: every
exact array has a leading batch axis, so a pass of B operators makes the numpy calls of
one.  The package's one Gauss-Legendre rule, `gauss_rule`, lives here too, as both
the operators and `dg.dg_rhs` are built on the scheme's rule (`scheme_rule`).

- `_increment_operators(d, nus)`, for tp1 and tp2: R - I = sum_k (dt A)^k / k!,
  k = 1..4, A the upwind operator.  h A has integer Legendre blocks, so R - I has
  five block diagonals, rational in nu = dt / h, each entry an integer over 24 q^4
  (nu = p/q), plus three inflow terms of a Dirichlet step on elements 0-3.
- `_harmonic_operators(d, pairs)`, for periodic tp3 on a mesh of length 2 pi, per
  (h, dt): the four stages composed into trigonometric polynomials in the element
  phase s = x_e + t_k (`dg` describes the step), on integers in fixed point
  2^-128, from the scheme's float Gauss rule, the cosines and sines of the node
  offsets, h/2, h, dt/2 and dt, and nu = dt / h, each lifted exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .exact import RatMatrix


@lru_cache(maxsize=None)
def gauss_rule(points: int, d: int) -> tuple[np.ndarray, ...]:
    """Gauss-Legendre nodes and weights on [-1, 1], and P_n, P_n' at the nodes (points, d + 1),
    n = 0..d; read-only, as every caller shares them."""
    gx, gw = np.polynomial.legendre.leggauss(points)
    p = np.polynomial.legendre.legvander(gx, d)
    pd = np.polynomial.legendre.legval(gx, np.polynomial.legendre.legder(np.eye(d + 1))).T
    rule = gx, gw, p, pd
    for a in rule:
        a.flags.writeable = False
    return rule


def scheme_rule(d: int) -> tuple[np.ndarray, ...]:
    """The DG scheme's `gauss_rule` at degree d: max(2d + 2, d + 4) points."""
    return gauss_rule(max(2 * d + 2, d + 4), d)


@lru_cache(maxsize=None)
def _upwind_powers(d: int) -> np.ndarray:
    """M[k, j], k, j = 0..4: the block on block sub-diagonal j of (h A)^k, in integers.

    h A has the diagonal block (2n + 1)(V[l, n] - 1), V[l, n] = int P_l P_n'
    = 2 if n > l and n + l is odd, else 0, and the sub-diagonal block
    (2n + 1)(-1)^n (Hesthaven & Warburton, Nodal DG Methods, 2008, ch. 4).
    """
    n, l = np.indices((d + 1, d + 1))
    m = np.zeros((5, 5, d + 1, d + 1), dtype=np.int64)
    m[0, 0] = np.eye(d + 1)
    for k in range(1, 5):
        m[k] = (2 * n + 1) * (2 * ((n > l) & ((n + l) % 2 == 1)) - 1) @ m[k - 1]
        m[k, 1:] += (2 * n + 1) * (-1) ** n @ m[k - 1, :-1]
    return m.astype(object)  # Python integers: the operator's entries outgrow int64


@lru_cache(maxsize=None)
def _inflow_traces(d: int) -> np.ndarray:
    """M[k, :4] b, k = 0..3, b = (2n + 1)(-1)^n: what the inflow on element 0 adds to
    elements 0-3 through (h A)^k, as (4, 4, d + 1) integers."""
    b = (2 * np.arange(d + 1) + 1) * (-1) ** np.arange(d + 1)
    return _upwind_powers(d)[:4, :4] @ b


def _increment_operators(d: int, nus) -> list[tuple[np.ndarray, np.ndarray]]:
    """The blocks and inflow terms of an RK4 step at each nu = dt / h, entries as floats hi, lo.

    Row j*m + l, column n of the blocks is entry (n, l) of
    B_j = sum_k nu^k / k! M[k, j], k = 1..4, so a step is u_i += sum_j B_j u_(i-j).
    A Dirichlet step also adds g(t_k) c1 + g(t_k + dt/2) c2 + g(t_k + dt) c4,
    6 c1 = (I + a + a^2/2 + a^3/4) b, 6 c2 = (4I + 2a + a^2/2) b, 6 c4 = b,
    with a = dt A and b = nu (2n + 1)(-1)^n on element 0.  The numerators of
    every nu are made in one pass over a leading batch axis; each nu = p/q is
    rounded over its own 24 q^4.
    """
    m = d + 1
    p, q = (np.array(v, dtype=object).reshape(-1, 1, 1)
            for v in zip(*((nu.numerator, nu.denominator) for nu in nus)))
    powers, traces = _upwind_powers(d), _inflow_traces(d)
    blocks = np.zeros((len(nus), 5, m, m), dtype=object)
    for k in range(1, 5):  # M[k, j] = 0 for j > k
        scale = 24 // factorial(k) * p ** k * q ** (4 - k)
        blocks[:, :k + 1] += scale[:, None] * powers[k, :k + 1]
    inflow = np.stack([sum(w * p ** (k + 1) * q ** (3 - k) * traces[k] for k, w in enumerate(ws))
                       for ws in ((4, 4, 2, 1), (16, 8, 2), (4,))], axis=1)
    return [(RatMatrix(b.transpose(0, 2, 1), 24 * den ** 4).hi_lo().reshape(2, 5 * m, m),
             RatMatrix(c, 24 * den ** 4).hi_lo().reshape(2, 3, 4 * m))
            for b, c, den in zip(blocks, inflow, q.ravel().tolist())]


_ONE = 1 << 128  # the harmonic operator is composed in fixed point 2^-128, as tests/oracles.py


def _lift(x) -> np.ndarray:
    """Floats as integer multiples of 2^-128 (exact down to 2^-75), in an object array."""
    x = np.asarray(x, dtype=float)
    return np.array([int(v) for v in np.ldexp(x, 128).ravel()], dtype=object).reshape(x.shape)


def _cprod(a, b):
    """Product of complex fixed-point values or arrays, each a pair (re, im), rounded down."""
    (ar, ai), (br, bi) = a, b
    return (ar * br - ai * bi) >> 128, (ar * bi + ai * br) >> 128


def _legendre_fixed(x: float, d: int) -> tuple[list[int], list[int]]:
    """P_l(x) and P_l'(x), l = 0..d, exactly from the float x, then rounded to 2^-128."""
    x = Fraction(x)
    p, dp = [Fraction(1), x], [Fraction(0), Fraction(1)]
    for l in range(1, d):
        p.append(((2 * l + 1) * x * p[l] - l * p[l - 1]) / (l + 1))
        dp.append(dp[l - 1] + (2 * l + 1) * p[l])
    return [round(v * _ONE) for v in p[:d + 1]], [round(v * _ONE) for v in dp[:d + 1]]


@lru_cache(maxsize=None)
def _harmonic_tables(d: int, h: float):
    """The dt-free parts of tp3's stage on a periodic mesh of element width h, in fixed point.

    At the element phase s = x_e + t, x_e the element's midpoint, and a
    point delta from it, kappa = 2 + e^{is} e^{i delta} / 2i + conj.
    Returns (own, inflow, beta, shift), each a pair (re, im) of object
    arrays, from the scheme's Gauss rule and the cosines and sines of the
    node offsets h gx / 2, of h / 2 and of h: own (2, m, m) is h times
    the stage's block on the element itself for kappa's harmonics
    e^{ijs}, j = 0, 1 (volume term, minus the outflow at delta = h / 2);
    inflow (2,) is kappa's harmonics at the inflow face, delta = -h / 2;
    beta (2, m) is the projected source (2l + 1) / 2 sum_q gw_q rho_q
    P_l(gx_q) of its harmonics e^{-2it_k} e^{is} (at tau = 0) and
    e^{-2it_k} e^{2is}; shift (11, 1, 1, 1) is e^{-ijh}, j = -5..5, the
    phase of an element's upwind neighbour.
    """
    m = d + 1
    gx, gw = scheme_rule(d)[:2]
    p, dp = (np.array(v, dtype=object) for v in zip(*(_legendre_fixed(x, d) for x in gx.tolist())))
    w, odd = _lift(gw), np.array([2 * l + 1 for l in range(m)], dtype=object)
    terms = (dp[:, :, None] * p[:, None, :]) >> 128  # [q, l, n] P_l'(gx_q) P_n(gx_q)
    c, s = _lift(np.cos(0.5 * h * gx)), _lift(np.sin(0.5 * h * gx))
    (cf, sf, ch, sh) = _lift([np.cos(0.5 * h), np.sin(0.5 * h), np.cos(h), np.sin(h)])
    volume = lambda f: odd[:, None] * (np.tensordot(w * f, terms, axes=1) >> 256)
    own = (np.array([2 * (volume(np.full(len(gx), _ONE, dtype=object)) - odd[:, None] * _ONE),
                     (volume(s) - odd[:, None] * sf) >> 1]),  # e^{i delta} / 2i
           np.array([np.zeros((m, m), dtype=object), (odd[:, None] * cf - volume(c)) >> 1]))
    inflow = (np.array([2 * _ONE, -sf >> 1], dtype=object), np.array([0, -cf >> 1], dtype=object))
    # rho = Re(e^{-2it_k} e^{is} e^{i(delta - tau)}) + Im(e^{-2it_k} e^{2is} e^{2i delta})
    c2, s2 = (c * c - s * s) >> 128, (2 * c * s) >> 128
    project = lambda f: odd * ((p.T @ (w * f)) >> 256) >> 2
    beta = (np.array([project(c), project(s2)]), np.array([project(s), -project(c2)]))
    shift = [(_ONE, 0)]
    for _ in range(5):
        shift.append(_cprod(shift[-1], (ch, -sh)))
    shift = [(re, -im) for re, im in shift[:0:-1]] + shift
    return own, inflow, beta, tuple(np.array(part, dtype=object)[:, None, None, None]
                                    for part in zip(*shift))


def _fixed_hi_lo(nums: np.ndarray) -> np.ndarray:
    """Integers in fixed point 2^-128 as floats hi, each rounded, and lo, its rounded rest, on a
    new first axis, as `exact.RatMatrix(nums, 2**128).hi_lo()` gives them: float(x) rounds x
    once, x - int(float(x)) is the exact rest, and the scaling by 2^-128 is exact."""
    flat = nums.ravel().tolist()
    hi = [float(x) for x in flat]
    lo = [float(x - int(v)) for x, v in zip(flat, hi)]
    return np.ldexp(np.array([hi, lo]), -128).reshape((2,) + nums.shape)


def _compose(stage, x, shift, lo: int, hi: int):
    """Harmonics lo..hi of the stage applied after the operator x, for a batch of B operators.

    stage: (own, inflow, v), for harmonics j2 = -1, 0, 1 of the element
    phase: the block on the element itself, (re, im) each (B, 3, 1, 1, m,
    m), and the weight of the upwind neighbour's trace, (re, im) each (B,
    3, 1, 1, 1, 1), which enters row l times v_l.  x: (x_lo, re, im), each
    (B, J, K, m, c), for harmonics x_lo .. x_lo + J - 1 and shifts 0 ..
    K - 1.  shift: (re, im) each (B, 11, 1, 1, 1), e^{-ijh}, j = -5..5;
    harmonic j1 of the neighbour gains e^{-i j1 h}.
    """
    (own, inflow, v), (x_lo, xr, xi) = stage, x
    batch, size, shifts = xr.shape[:3]
    out = [np.zeros((batch, hi - lo + 1, shifts + 1) + xr.shape[3:], dtype=object)
           for _ in range(2)]
    phases = tuple(part[:, x_lo + 5:x_lo + 5 + size] for part in shift)
    traces = xr.sum(axis=3, keepdims=True), xi.sum(axis=3, keepdims=True)
    for j2 in (-1, 0, 1):
        j1_lo, j1_hi = max(x_lo, lo - j2), min(x_lo + size - 1, hi - j2)
        if j1_lo > j1_hi:
            continue
        rows = slice(j1_lo - x_lo, j1_hi - x_lo + 1)
        to = slice(j1_lo + j2 - lo, j1_hi + j2 - lo + 1)
        (ar, ai), br, bi = (own[0][:, j2 + 1], own[1][:, j2 + 1]), xr[:, rows], xi[:, rows]
        if j2:  # three real products (Gauss)
            t = ar @ (br + bi)
            on_own = (t - (ar + ai) @ bi) >> 128, (t + (ai - ar) @ br) >> 128
        else:  # kappa's constant 2: a real block
            on_own = (ar @ br) >> 128, (ar @ bi) >> 128
        weight = _cprod((inflow[0][:, j2 + 1], inflow[1][:, j2 + 1]),
                        (phases[0][:, rows], phases[1][:, rows]))
        entering = _cprod(weight, (traces[0][:, rows], traces[1][:, rows]))
        for part, a, b in zip(out, on_own, entering):
            part[:, to, :shifts] += a
            part[:, to, 1:] += v * b
    return (lo, *out)


def _harmonic_operators(d: int, pairs) -> list[tuple[np.ndarray, np.ndarray]]:
    """tp3's RK4 increment on a periodic mesh of length 2 pi, entries as floats hi + lo, for
    each (h, dt) pair, all composed in one batched pass.

    Returns (w, g) per pair.  w (5m, 18m): a step adds (phi(s_e), phi(s_e))
    [u_(e-4) ... u_e] [w_hi | w_lo], phi = (1, cos s, sin s, ..., cos 4s,
    sin 4s), s_e = x_e + t_k.  g (2, 22, m): the source adds (phi5(s_e),
    phi5(s_e)) (cos 2t_k g[0] + sin 2t_k g[1]), phi5 with harmonics up to
    5, rows 0-10 of g the hi parts and 11-21 the lo parts.  The stages
    are composed in the basis e^{ijs}: u's operator for j >= 0 only (the
    rest are conjugates), the source's for all j, without the factor
    e^{-2it_k} that every term of it shares.  Every exact array has a
    leading batch axis: nu, dt and the turns are (B,) vectors, shaped to
    broadcast, and the tables of each pair's h are stacked.
    """
    m, size = d + 1, len(pairs)
    hs, dts = (list(v) for v in zip(*pairs))
    column = lambda a, ndim: a.reshape((size,) + (1,) * ndim)  # a batch vector, to broadcast
    tables = [_harmonic_tables(d, h) for h in hs]
    own, inflow, beta, shift = (tuple(np.stack([t[i][part] for t in tables]) for part in (0, 1))
                                for i in range(4))
    own = tuple(a[:, :, None, None] for a in own)  # (B, 2, 1, 1, m, m)
    inflow = tuple(a.reshape(size, 2, 1, 1, 1, 1) for a in inflow)
    dt_fixed = _lift(dts)
    nu = column((dt_fixed << 128) // _lift(hs), 5)
    v = np.array([[(2 * l + 1) * (-1) ** l] for l in range(m)], dtype=object)

    def harmonics(part, turn):  # nu times a stage part's harmonics -1, 0, 1, the 1 turned
        (re, im), (re1, im1) = part, _cprod(turn, (part[0][:, 1], part[1][:, 1]))
        return (nu * np.stack([re1, re[:, 0], re1], 1) >> 128,
                nu * np.stack([-im1, im[:, 0], im1], 1) >> 128)

    stages, sources = [], []
    for taus in ([0.0] * size, [0.5 * dt for dt in dts], dts):
        turn = _lift([[np.cos(tau), np.sin(tau)] for tau in taus]).T  # e^{i tau}
        stages.append((harmonics(own, tuple(column(a, 4) for a in turn)),
                       harmonics(inflow, tuple(column(a, 4) for a in turn)), v))
        first = _cprod((column(turn[0], 1), -column(turn[1], 1)),
                       (beta[0][:, 0], beta[1][:, 0]))  # e^{-i tau}
        sources.append(tuple((column(dt_fixed, 4) * np.stack([a, b], 1)[:, :, None, :, None]) >> 128
                             for a, b in zip(first, (beta[0][:, 1], beta[1][:, 1]))))

    def after(stage, x, halve):  # stage (I + x / 2^halve), x given for j >= 0
        _, r, i = x
        top = r.shape[1] - 1
        r = np.concatenate((r[:, :0:-1], r), axis=1) >> halve
        i = np.concatenate((-i[:, :0:-1], i), axis=1) >> halve
        r[:, top, 0] += np.eye(m, dtype=object) * _ONE
        return _compose(stage, (-top, r, i), shift, 0, top + 1)

    def source_after(stage, x, source, halve):  # stage x / 2^halve + source, shifts summed
        lo, r, i = _compose(stage, (x[0], x[1] >> halve, x[2] >> halve), shift,
                            x[0] - 1, x[0] + x[1].shape[1])
        r, i = r.sum(axis=2, keepdims=True), i.sum(axis=2, keepdims=True)
        r[:, 1 - lo:3 - lo] += source[0]
        i[:, 1 - lo:3 - lo] += source[1]
        return lo, r, i

    p = [after(stages[0], (0, *np.zeros((2, size, 1, 1, m, m), dtype=object)), 0)]
    s = [(1, *sources[0])]
    for level, halve in ((1, 1), (1, 1), (2, 0)):  # K2 and K3 at t_k + dt/2, K4 at t_k + dt
        p.append(after(stages[level], p[-1], halve))
        s.append(source_after(stages[level], s[-1], sources[level], halve))
    def slots(re, im):  # of Re sum_j C_j e^{ijs} in phi: Re C_0, then 2 Re C_j, -2 Im C_j
        return np.concatenate((re[:, :1], np.stack((2 * re[:, 1:], -2 * im[:, 1:]), 2).reshape(
            (size, -1) + re.shape[2:])), axis=1)

    c = np.zeros((2, size, 5, 5, m, m), dtype=object)
    for weight, (_, r, i) in zip((1, 2, 2, 1), p):
        c[:, :, :r.shape[1], :r.shape[2]] += weight * np.array([r, i])
    w = _fixed_hi_lo(slots(*c)[:, :, ::-1] // 6)
    w = w.transpose(1, 3, 5, 0, 2, 4).reshape(size, 5 * m, 18 * m)
    g = np.zeros((2, size, 8, m), dtype=object)  # harmonics -2..5 of the part with e^{-2it_k}
    for weight, (lo, r, i) in zip((1, 2, 2, 1), s):
        g[:, :, lo + 2:lo + 2 + r.shape[1]] += weight * np.array([r[:, :, 0, :, 0],
                                                                 i[:, :, 0, :, 0]])
    # e^{-2it} g_j + conj(e^{-2it} g_(-j))
    #     = cos 2t (g_j + conj g_(-j)) - i sin 2t (g_j - conj g_(-j))
    (pos_r, pos_i), neg = g[:, :, 2:], np.zeros((2, size, 6, m), dtype=object)
    neg[:, :, :3] = g[:, :, 2::-1]
    g = np.array([slots(pos_r + neg[0], pos_i - neg[1]), slots(pos_i + neg[1], neg[0] - pos_r)])
    g = _fixed_hi_lo(g // 6).transpose(2, 1, 0, 3, 4).reshape(size, 2, 22, m)
    return [(a.copy(), b.copy()) for a, b in zip(w, g)]
