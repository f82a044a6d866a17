"""Score oracles: l'(y) = d/dy log p(y) for known mixture priors.

Gaussian noise admits a closed-form marginal (each mixture component
convolves to another Gaussian); ``gaussian_posterior`` evaluates its score
and the oracle column component-major, per block of BLOCK // K pixels for K
components.  BLOCK is the element budget of the elementwise kernels: a
kernel whose widest temporary holds r rows of a block's pixels takes
BLOCK // r pixels a block, so its memory is bounded by BLOCK whatever the
prior and the image size.
Poisson and Gamma marginals are integrated by fixed-order Gauss-Legendre
quadrature over each prior component, with the score taken by analytic
differentiation under the integral:

    Poisson  p(y|x) interpolated via lgamma:  n = y/zeta,
             log p = n*log(x/zeta) - x/zeta - lgamma(n+1)
             => l'(y) = (E[log(x/zeta) | y] - digamma(n+1)) / zeta
    Gamma    p(y|x) = Gamma(y; shape k, rate k/x)
             => l'(y) = (k-1)/y - k * E[1/x | y]

The lgamma interpolation makes the Poisson likelihood smooth in y, so the
same under-the-integral route serves both kinds; the digamma term is the
exact derivative of the interpolated normalizer.

On the log scale the node posterior p(x_j | y) is affine in y: the terms
constant in x (lgamma(n+1); lgamma(k) and (k-1)*log(y)) cancel on
normalisation, leaving c_j + y*d_j, with logw_j the node's log-weight:

    Poisson  c_j = logw_j - x_j/zeta,        d_j = log(x_j/zeta)/zeta
    Gamma    c_j = logw_j + k*log(k/x_j),    d_j = -k/x_j

``quadrature_posterior`` evaluates it directly, in blocks of QUAD_BLOCK
pixels, which bounds memory whatever the image size; its block is counted
in pixels, as it sets the row tiling of the BLAS products and so their
last bits.  With ``slopes`` it also returns the first two y-derivatives of
E[f | y] and E[x | y], which are posterior cumulants with d: Cov(v, d) and
k(v, d, d).

Both E[f | y] and E[x | y] are 1-D functions of y fixed by (prior, model),
so the checked score and the oracle column read them from one table per
(prior, model, order), ``posterior_table``: quintic Hermite interpolation
of the values and both derivatives on a grid from EPS_Y over a span set by
the prior and the model.  A cell is split until its interpolant meets direct
quadrature at its midpoint, and each is checked against half the quadrature
order, so a pixel in an unconverged cell fails loudly rather than returning
an unconverged score.  Kept cells are re-expanded onto the finest step, and
a pixel's value is a pure function of its own y.  Pixels above the span are
evaluated directly, with the same order-halving check.
scipy is imported only where it is used: digamma, in the Poisson score.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, QuadratureError
from .simulate import GmmPrior
from .tweedie import EPS_Y, ModelKind, NoiseModel

QUAD_ORDER = 48  # per-component Gauss-Legendre points
QUAD_SPAN = 8.0  # integrate each component over mean +- QUAD_SPAN stds
CONVERGENCE_TOL = 1e-6  # max |score(order) - score(2*order)| allowed
QUAD_BLOCK = 2048  # pixels per block of the quadrature kernel
BLOCK = 1 << 15  # element budget of the elementwise kernels: BLOCK // r pixels a block, r rows a temporary
TABLE_STEP = 2.0**-10  # the table's first step; a cell failing the midpoint check is halved
TABLE_MIN_STEP = 2.0**-15  # the last
MIDPOINT_TOL = 1e-10  # max |score| gap of the table's interpolant at a cell midpoint
MIDPOINT_RTOL = 1e-13  # max relative E[x | y] gap there

log = logging.getLogger("tweedenoise")


class Pool(tuple):
    """A group's per-image arrays, read in order as one flat field and never copied into one."""

    size = property(lambda self: sum(x.size for x in self))  # their pixel count


@dataclass(frozen=True)
class ScoreField:
    """Per-pixel score values, or a Pool of each image's, plus the backend that produced them."""

    values: np.ndarray
    backend: str = "unspecified"

    def __post_init__(self):
        pool = isinstance(self.values, Pool)
        arrays = [np.asarray(v, dtype=np.float64) for v in (self.values if pool else [self.values])]
        if not all(np.isfinite(v).all() for v in arrays):
            raise DomainError("score field contains non-finite entries")
        object.__setattr__(self, "values", Pool(arrays) if pool else arrays[0])


def analytic_score_gaussian(y, prior: GmmPrior, sigma: float) -> ScoreField:
    """Exact marginal score under Gaussian noise.

    p(y) = sum_j w_j N(y; m_j, v_j) with v_j = s_j^2 + sigma^2; the score is
    the responsibility-weighted sum of per-component scores -(y - m_j) / v_j.
    """
    if not np.isfinite(sigma) or sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    return ScoreField(gaussian_posterior(y, prior, sigma * sigma, -1.0, 0.0), backend="oracle-gaussian")


def gaussian_posterior(y, prior: GmmPrior, var: float, gain, offset):
    """sum_j p(j | y) * (gain_j / v_j * (y - m_j) + offset_j) shaped like ``y``, v_j = s_j^2 + var.
    Per block of BLOCK // K pixels, one buffer row per component holds the logits
    c_j - (y - m_j)^2 / (2 v_j), unexpanded to keep digits, shifted by their max and
    exponentiated in place; another holds the deviations, so the buffer has 2 K rows."""
    m, v = np.asarray(prior.means)[:, None], np.square(prior.stds)[:, None] + var
    c = np.log(np.maximum(prior.weights, 1e-300))[:, None] - 0.5 * np.log(2.0 * np.pi * v)
    slope, offset = np.reshape(gain, (-1, 1)) / v, np.reshape(offset, (-1, 1))
    flat = np.asarray(y, dtype=np.float64).ravel()
    out, px = np.empty_like(flat), max(BLOCK // m.size, 1)
    buf = np.empty((2, m.size, min(flat.size, px)))
    norm = np.empty(buf.shape[2])
    for lo in range(0, flat.size, px):
        yb, res = flat[lo : lo + px], out[lo : lo + px]
        dev, logit, z = buf[0, :, : yb.size], buf[1, :, : yb.size], norm[: yb.size]
        np.subtract(yb, m, out=dev)
        np.multiply(dev, dev, out=logit)
        logit /= 2.0 * v
        np.subtract(c, logit, out=logit)
        logit -= logit.max(axis=0, out=z)
        np.exp(logit, out=logit)
        dev *= slope
        dev += offset
        dev *= logit
        np.divide(dev.sum(axis=0, out=res), logit.sum(axis=0, out=z), out=res)
    return out.reshape(np.shape(y))[()]


@functools.lru_cache(maxsize=8)
def _component_nodes(prior: GmmPrior, order: int):
    """Gauss-Legendre nodes/log-weights covering every prior component,
    built once per (prior, order) and returned read-only."""
    t, w = leggauss(order)
    xs, logws = [], []
    for wt, m, sd in zip(prior.weights, prior.means, prior.stds):
        lo = max(m - QUAD_SPAN * sd, EPS_Y * 0.1)
        hi = m + QUAD_SPAN * sd
        x = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
        logpdf = -0.5 * ((x - m) / sd) ** 2 - np.log(sd * np.sqrt(2.0 * np.pi))
        xs.append(x)
        logws.append(np.log(max(wt, 1e-300)) + logpdf + np.log(0.5 * (hi - lo) * w))
    xs, logws = np.concatenate(xs), np.concatenate(logws)
    xs.flags.writeable = logws.flags.writeable = False
    return xs, logws


def quadrature_posterior(y, prior: GmmPrior, model: NoiseModel, order: int, slopes: bool = False):
    """(E[f(x) | y], E[x | y]) over the quadrature nodes, each shaped like
    ``y``, for Poisson or Gamma noise, with f = log(x/zeta) (Poisson) or 1/x
    (Gamma).  Per block, [y, 1] @ [d; c] fills a reused buffer with the node
    logits, which are shifted by their row max and exponentiated in place;
    one product with the node columns [1, f, x] sums all three moments.

    With ``slopes`` the tuple goes on with (E[f]', E[x]', E[f]'', E[x]''),
    the y-derivatives: as the logits are c + y*d, dE[v|y]/dy = Cov(v, d) and
    d2E[v|y]/dy2 = k(v, d, d), the third joint cumulant, so the same product
    takes six more columns, v*d and v*d^2 for v = 1, f, x."""
    xs, logws = _component_nodes(prior, order)
    if model.kind is ModelKind.POISSON:
        zeta = model.level
        f = np.log(xs / zeta)
        c, d = logws - xs / zeta, f / zeta
    elif model.kind is ModelKind.GAMMA:
        k = model.level
        f = 1.0 / xs
        c, d = logws + k * np.log(k / xs), -k * f
    else:
        raise DomainError(f"quadrature oracle only covers Poisson/Gamma, got {model.kind}")
    dc, cols = np.stack([d, c]), [np.ones_like(xs), f, xs]
    if slopes:
        dm = d - d.mean()  # cumulants are unmoved by a shift of d; centring keeps their digits
        cols += [v * dm for v in cols] + [v * dm * dm for v in cols]
    cols = np.stack(cols, axis=1)
    flat = np.asarray(y, dtype=np.float64).ravel()
    sums = np.empty((flat.size, cols.shape[1]))
    y_one = np.ones((min(flat.size, QUAD_BLOCK), 2))
    buf = np.empty((len(y_one), xs.size))
    for lo in range(0, flat.size, QUAD_BLOCK):
        n = min(QUAD_BLOCK, flat.size - lo)
        y_one[:n, 0] = flat[lo : lo + n]
        b = np.matmul(y_one[:n], dc, out=buf[:n])
        b -= b.max(axis=1, keepdims=True)
        np.exp(b, out=b)
        np.matmul(b, cols, out=sums[lo : lo + n])
    m = (sums[:, 1:] / sums[:, :1]).T
    if slopes:  # raw moments E[v d^j] to cumulants
        ev, ed, evd, edd, evdd = m[:2], m[2], m[3:5], m[5], m[6:8]
        cov = evd - ev * ed
        m = np.concatenate([ev, cov, evdd - ev * edd - 2.0 * ed * cov])
    return tuple(m.reshape(len(m), *np.shape(y)))


@dataclass(frozen=True)
class PosteriorTable:
    """E[f | y] and E[x | y] as quintic Hermite polynomials on the cells
    [EPS_Y + i*step, EPS_Y + (i+1)*step]: ``coef[j, q, i]`` multiplies t^j,
    t = (y - EPS_Y)/step - i, for q = 0 (E[f]) and 1 (E[x]).  ``ok[i]`` says
    whether cell i passed both convergence checks."""

    step: float
    coef: np.ndarray
    ok: np.ndarray


def _hermite_coef(ends, step: float) -> np.ndarray:
    """(6, 2, cells) power coefficients in t of the quintic that matches the values and the first two
    y-derivatives of E[f] and E[x] at both ends of each cell: ``ends[:6, i]`` holds quadrature_posterior's
    tuple with slopes at cell i's low and high node."""
    (v0, d0, s0), (v1, d1, s1) = ((e[0:2], step * e[2:4], step * step * e[4:6]) for e in (ends[..., 0], ends[..., 1]))
    a = v1 - v0 - d0 - 0.5 * s0
    b = d1 - d0 - s0
    c = s1 - s0
    return np.stack([v0, d0, 0.5 * s0,
                     10.0 * a - 4.0 * b + 0.5 * c, -15.0 * a + 7.0 * b - c, 6.0 * a - 3.0 * b + 0.5 * c])


# t = (k + u)/2 on the low (k = 0) and the high (k = 1) half of a cell: _HALVES[k, j, i] takes t^i to u^j
_HALVES = np.array([[[math.comb(i, j) * k**max(i - j, 0) / 2**i for i in range(6)] for j in range(6)] for k in (0, 1)])


def _horner(coef, t):
    r = coef[5] * t
    for j in range(4, 0, -1):
        r += coef[j]
        r *= t
    r += coef[0]
    return r


@functools.lru_cache(maxsize=8)
def posterior_table(prior: GmmPrior, model: NoiseModel, order: int) -> PosteriorTable:
    """The checked table of the order-``order`` quadrature posterior,
    built once per (prior, model, order) and returned read-only.

    The span runs from EPS_Y to QUAD_SPAN noise standard deviations above
    the highest prior component's node range, in cells of TABLE_STEP.  A
    cell passes the order check when the score at order//2 and at ``order``
    agree within CONVERGENCE_TOL at both its nodes, and the midpoint check
    when the interpolant at its midpoint agrees with direct quadrature
    within MIDPOINT_TOL on the score and MIDPOINT_RTOL relative on E[x].
    A cell that passes both is kept, and the others are split at their
    midpoints until no cell fails the midpoint check alone, or down to
    TABLE_MIN_STEP; the kept quintics are then re-expanded onto the final
    step.  Neither the span nor the step depends on any data."""
    t0 = time.perf_counter()
    scale = _score_scale(model)
    x_hi = max(m + QUAD_SPAN * sd for m, sd in zip(prior.means, prior.stds))
    noise_sd = np.sqrt(model.level * x_hi) if model.kind is ModelKind.POISSON else x_hi / np.sqrt(model.level)
    top, step = x_hi + QUAD_SPAN * noise_sd, TABLE_STEP
    points = np.zeros(2, dtype=int)  # evaluated at order and at order // 2

    def checked_nodes(ys):  # (7, ys.size): quadrature_posterior's tuple with slopes, then the order gap
        fine = quadrature_posterior(ys, prior, model, order, slopes=True)
        points[:] += ys.size
        return np.stack([*fine, scale * np.abs(quadrature_posterior(ys, prior, model, order // 2)[0] - fine[0])])

    cells = np.arange(int(np.ceil((top - EPS_Y) / step)))  # the unsettled cells' indices at this step
    nodes = checked_nodes(EPS_Y + step * np.arange(cells.size + 1))
    ends = np.stack([nodes[:, :-1], nodes[:, 1:]], axis=-1)  # (7, cells, 2): each cell's low and high node
    tab_coef, tab_ok = np.zeros((6, 2, cells.size)), np.zeros(cells.size, dtype=bool)  # all cells at this step
    kept, worst = [], np.zeros(3)  # cells kept per level; the worst order and midpoint gaps over them
    while True:
        coef = _hermite_coef(ends, step)
        converged, mid = ends[6].max(axis=1) <= CONVERGENCE_TOL, EPS_Y + step * cells + 0.5 * step
        (mid_f, mid_x), (e_f, e_x) = _horner(coef, 0.5), quadrature_posterior(mid, prior, model, order)
        points[0] += mid.size
        mid_gap = scale * np.abs(mid_f - e_f), np.abs(mid_x / e_x - 1.0)
        ok = converged & (np.maximum(mid_gap[0] / MIDPOINT_TOL, mid_gap[1] / MIDPOINT_RTOL) <= 1.0)
        kept.append(np.count_nonzero(ok))
        worst = np.maximum(worst, [np.max(g[ok], initial=0.0) for g in (ends[6], *mid_gap)])
        final = step <= TABLE_MIN_STEP or np.array_equal(ok, converged)  # no cell fails the midpoint check alone
        keep = ok | final
        tab_coef[:, :, cells[keep]], tab_ok[cells[keep]] = coef[:, :, keep], ok[keep]
        if final:
            break
        node = checked_nodes(mid[~keep])  # the new node between each split cell's halves
        ends = np.stack([ends[:, ~keep, 0], node, node, ends[:, ~keep, 1]], axis=-1).reshape(7, -1, 2)
        cells, step = (2 * cells[~keep, None] + (0, 1)).ravel(), step / 2.0
        tab_coef, tab_ok = np.einsum("kji,iqn->jqnk", _HALVES, tab_coef).reshape(6, 2, -1), np.repeat(tab_ok, 2)
    tab_coef.flags.writeable = tab_ok.flags.writeable = False
    log.info("quadrature table %s %g, order %d: step %.3g, %d cells, %d failing; %d and %d points at orders %d"
             " and %d; cells kept per level %s; over them the worst order gap %.2e, midpoint gaps %.2e on the"
             " score and %.2e relative on E[x]; built in %.3f s", model.kind.value, model.level, order, step,
             tab_ok.size, np.count_nonzero(~tab_ok), *points, order, order // 2, "/".join(map(str, kept)), *worst,
             time.perf_counter() - t0)
    return PosteriorTable(step, tab_coef, tab_ok)


def posterior_moment(y, prior: GmmPrior, model: NoiseModel, order: int, q: int) -> np.ndarray:
    """E[f | y] (q = 0) or E[x | y] (q = 1) at quadrature ``order``, shaped
    like ``y``.  Within the span of ``posterior_table(prior, model, order)``
    it is read from the table, in blocks of BLOCK // 6 pixels, as the gather
    of their coefficients holds six rows; the first cell also serves y from
    the intensity floor 0.999*EPS_Y up to EPS_Y, and a pixel in a cell that
    failed the table's checks raises :class:`QuadratureError`.  Above the
    span it is evaluated directly, and the score at order//2 and at
    ``order`` must agree within CONVERGENCE_TOL."""
    y = _checked_domain(y)
    table = posterior_table(prior, model, order)
    flat, cells = y.ravel(), table.ok.size
    out, above, px = np.empty_like(flat), np.empty(flat.shape, dtype=bool), BLOCK // 6
    for lo in range(0, flat.size, px):
        t = (flat[lo : lo + px] - EPS_Y) / table.step
        off = np.greater_equal(t, cells, out=above[lo : lo + px])
        i = np.clip(np.floor(t), 0, cells - 1)
        t -= i
        i = i.astype(np.intp)
        bad = ~(table.ok[i] | off)
        if bad.any():
            raise QuadratureError(
                f"quadrature not converged at y = {flat[lo + np.argmax(bad)]:.6g}: its cell of the"
                " quadrature table failed the order-doubling or the midpoint check"
            )
        out[lo : lo + px] = _horner(table.coef[:, q, i], t)
    if above.any():
        ya = flat[above]
        fine = quadrature_posterior(ya, prior, model, order)
        coarse = quadrature_posterior(ya, prior, model, order // 2)[0]
        gap = _score_scale(model) * float(np.max(np.abs(coarse - fine[0])))
        if gap > CONVERGENCE_TOL:
            raise QuadratureError(f"quadrature not converged: order {order // 2} vs {order} differ by {gap:.3e}")
        out[above] = fine[q]
    return out.reshape(y.shape)


def _score_scale(model: NoiseModel) -> float:
    """|d score / d E[f | y]|: k for Gamma, 1/zeta for Poisson."""
    return model.level if model.kind is ModelKind.GAMMA else 1.0 / model.level


def _score(y, e_f, model: NoiseModel):
    if model.kind is ModelKind.POISSON:
        from scipy.special import digamma
        zeta = model.level
        return (e_f - digamma(y / zeta + 1.0)) / zeta
    k = model.level
    return (k - 1.0) / y - k * e_f


def _checked_domain(y) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(y)):
        raise DomainError("y must be finite")
    if np.any(y < EPS_Y * 0.999):
        raise DomainError("y below the intensity floor")
    return y


def numeric_marginal_score(
    y, prior: GmmPrior, model: NoiseModel, order: int = QUAD_ORDER, check: bool = True
) -> ScoreField:
    """Quadrature-oracle score for Poisson or Gamma noise over a GMM prior.

    Without ``check``, one direct evaluation at ``order``.  With ``check``,
    E[f | y] comes from ``posterior_moment`` at ``2 * order``, checked
    against ``order``: an unconverged pixel raises :class:`QuadratureError`.
    """
    y = _checked_domain(y)
    e_f = posterior_moment(y, prior, model, 2 * order, 0) if check else quadrature_posterior(y, prior, model, order)[0]
    return ScoreField(_score(y, e_f, model), backend="oracle-quadrature")
