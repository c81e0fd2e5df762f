"""Spectra of Markov averaging operators on Schreier graphs.

Finite graphs get ρ₀ from deflated Lanczos at every size, with explicit
residual bounds, in a ``SpectralReport``; ``markov_spectrum``, the one
dense eigensolve, serves callers that need every eigenvalue.  Infinite
graphs described by cores or deep truncations get the certified lower
bounds r_n = (p_{2n})^{1/2n} on the spectral radius from exact return
counts, a plain nondecreasing tuple that rises to ρ.

A label support is read as an action of its own (``_support_action``),
and every support question is answered from its table: no n×n averaged
operator is formed.

scipy is imported inside the functions that call it, so importing this
module, or the package, loads none: most commands never run a solver.

Lanczos picks its operator from the graph's bandwidth b in reverse
Cuthill–McKee order: the inverse of I ∓ M from banded LU factors (I − M
grounded at one vertex) when 2·n·(b+1) ≤ _SPLU_FILL_CAP·nnz(I − M), as
on cycles and tori with their small spectral gaps; else M itself through
matrix-vector products (expanders), which also takes over a shift-invert
run that fails.  The root's eccentricity bounds b from below first
(``_band_too_wide``), so an expander that bound already rules out builds
no I − M, RCM order or permuted copy.  A bipartite M has D·M·D = −M for
D the diagonal of the 2-coloring sign vector, so the sign vector
certifies λ = −1, λ_min off {1, −1} is −λ_max, and only the top end is
solved.  Both operators run one plain Lanczos recurrence, which keeps
its vectors in one 4 MiB buffer while they fit and regenerates the rest
for the Ritz vectors (see _lanczos).  On M, each step calls scipy's CSR
kernel ``scipy.sparse._sparsetools.csr_matvec``, which ``M @ v`` runs,
directly (``_csr_product``).  A checkpoint that follows one that solved
every end solves first the end whose Ritz estimate was largest there,
and the others only if it passes, so the pass stops at the same step;
the step cap and an invariant Krylov space solve every end.  Every
``error_bound`` is a residual ‖My − θy‖/‖y‖ measured on M itself for
the Ritz pairs returned and the sign vector of a bipartite M, which
bounds the eigenvalue error for symmetric M.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, ClassVar, Iterator, Sequence

import numpy as np

from schreier.builders import from_perm_action
from schreier.core import (
    GenSet,
    GraphInvariantError,
    InequalityViolation,
    PermAction,
    SchreierGraph,
    Verdict,
    require_whole,
)
from schreier.walks import return_counts

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "DENSE_THRESHOLD",
    "SpectralReport",
    "RamanujanVerdict",
    "ProductReturnBound",
    "markov_matrix",
    "bipartition",
    "markov_spectrum",
    "rho0",
    "estimate_rho_returns",
    "tree_rho",
    "ramanujan_check",
    "support_subgroup_graph",
    "support_copies",
    "product_return_bound",
]

DENSE_THRESHOLD = 4096
_SPLU_FILL_CAP = 64.0       # banded LU above this × nnz(I − M) → matvec Lanczos
_RESIDUAL_TOL = 1e-9        # Ritz estimate |β·s_m| that ends a matvec first pass
_SHIFT_INVERT_TOL = 1e-10   # its bound 2|β·s_m|/|μ| on M that ends a shift-invert one
_SHIFT_INVERT_STEPS = 300   # step cap of one shift-invert solve
_SEED = 0                   # start vectors, so reports are reproducible
_BASIS_CELLS = 2**19        # float64 entries of Lanczos vectors a solve keeps (4 MiB)
_CONVERGED_BOUND = 1e-8
_ITERATION_CAP = 10_000

_log = logging.getLogger("schreier")
_Operator = Callable[[np.ndarray], np.ndarray]


def _averaging_matrix(slots: np.ndarray) -> sp.csr_matrix:
    """(1/d)·Σ_l P_l for the n×d table ``slots``: entry (x, y) is the share
    of the d columns that send x to y, multiplicity counted."""
    import scipy.sparse as sp

    n, d = slots.shape
    cols = slots.ravel()
    rows = np.repeat(np.arange(n), d)
    data = np.full(cols.size, 1.0 / d)
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def markov_matrix(g: SchreierGraph) -> sp.csr_matrix:
    """M = A/d with A the labeled adjacency matrix counting multiplicity."""
    require_whole(g, "the Markov operator")
    return _averaging_matrix(g.slots)


def bipartition(g: SchreierGraph) -> tuple[int, ...] | None:
    """A proper 2-coloring over the stored edges, or None if an odd closed
    walk exists.  (For cores the coloring extends to the hanging trees, so
    the answer is about the full graph the core describes.)  A connected
    graph has at most one with the root at 0: root-distance parity."""
    color = g.root_depths[:-1] & 1
    slots = g.slots
    if (color[slots] == color[:, None])[slots >= 0].any():
        return None
    return tuple(color.tolist())


def _refuse_dense(n: int) -> None:
    """Refuse a dense solve on n vertices above DENSE_THRESHOLD."""
    if n > DENSE_THRESHOLD:
        raise ValueError(
            f"n = {n} exceeds the dense threshold {DENSE_THRESHOLD}; "
            "rho0() computes extreme eigenvalues iteratively"
        )


def markov_spectrum(g: SchreierGraph) -> np.ndarray:
    """All eigenvalues of M, ascending, by a dense solve; sizes above
    DENSE_THRESHOLD are refused.  ρ₀ alone comes from rho0(), which
    needs only the extremes and solves them iteratively."""
    _refuse_dense(g.n)
    evs = np.linalg.eigvalsh(markov_matrix(g).toarray())
    if abs(evs[-1] - 1.0) > 1e-9:
        raise GraphInvariantError("top eigenvalue of a stochastic operator is not 1")
    return evs


@dataclass(frozen=True)
class SpectralReport:
    """Immutable record of one ``rho0`` solve on a graph of n vertices
    and degree d.

    ``rho0`` is max |λ| over the zero-sum subspace (the paper's operator
    norm); ``rho0_nonneg`` is the signed largest nontrivial eigenvalue;
    ``rho0_strict`` additionally discards the −1 eigenvalue forced by
    bipartiteness.  ``error_bound`` is the largest residual measured on
    M (see the module docstring), NaN at the step cap, and ``converged``
    says whether it met _CONVERGED_BOUND.
    """

    d: int
    n: int
    rho0: float
    rho0_nonneg: float
    bipartite: bool
    error_bound: float
    rho0_strict: float
    converged: bool
    # every solve is Lanczos; not a field, kept only because
    # bench/tracing.py names each rho0 span by it
    method: ClassVar[str] = "iterative"

    def __post_init__(self) -> None:
        if not -1e-9 <= self.rho0 <= 1 + 1e-9:
            raise GraphInvariantError(
                f"spectral radius estimate {self.rho0} escaped [0, 1]"
            )


# ---------------------------------------------------------------------------
# Iterative extreme-eigenvalue machinery
# ---------------------------------------------------------------------------


def _band_too_wide(n: int, d: int, eccentricity: int) -> bool:
    """Whether the search from the root already rules out banded LU on a
    connected graph of degree d whose root has this eccentricity: a path of
    at most 2·eccentricity edges joins the first and last vertex of any
    order, so every order has bandwidth b ≥ ⌈(n − 1)/(2·eccentricity)⌉,
    and nnz(I − M) ≤ n·(d + 1); ``_banded_order`` refuses whenever
    2·(b + 1) > _SPLU_FILL_CAP·(d + 1)."""
    floor = -(-(n - 1) // (2 * eccentricity))
    return 2 * (floor + 1) > _SPLU_FILL_CAP * (d + 1)


def _banded_order(M: sp.csr_matrix, n: int) -> np.ndarray | None:
    """The vertices in reverse Cuthill–McKee order, or None when banded LU
    factors of I ∓ M in that order would not fit:
    2·n·(b+1) > _SPLU_FILL_CAP·nnz(I − M), with b the bandwidth."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    A = sp.identity(n, format="csr") - M
    order = reverse_cuthill_mckee(A, symmetric_mode=True)
    banded = A[order][:, order].tocoo()
    bandwidth = int(np.max(np.abs(banded.row - banded.col)))
    if 2 * n * (bandwidth + 1) > _SPLU_FILL_CAP * A.nnz:
        return None
    return order


def _grounded_lu(M: sp.csr_matrix, sign: float, order: np.ndarray):
    """LU factors of I − sign·M on the vertices ``order``, grounding the
    rest.  I − M loses one vertex and I + M is only factored for
    non-bipartite M, so the matrix is positive definite: factored in that
    order without pivoting, the factors stay inside its band."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    A = sp.identity(M.shape[0], format="csr") - M.multiply(sign)
    return spla.splu(
        A[order][:, order].tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0
    )


def _start_vector(n: int) -> np.ndarray:
    """The seeded random unit vector of zero sum."""
    v = np.random.default_rng(_SEED).standard_normal(n)
    v -= v.mean()
    return v / np.linalg.norm(v)


def _csr_product(M: sp.csr_matrix) -> _Operator:
    """v ↦ M·v by the kernel that ``M @ v`` runs, csr_matvec of
    ``scipy.sparse._sparsetools``, called directly into a fresh zero
    vector: the same sums in the same order, without the dispatch."""
    from scipy.sparse._sparsetools import csr_matvec

    n = M.shape[0]
    indptr, indices, data = M.indptr, M.indices, M.data

    def product(v: np.ndarray) -> np.ndarray:
        w = np.zeros(n)
        csr_matvec(n, n, indptr, indices, data, v, w)
        return w

    return product


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """The one reduction of the recurrence, x·y: α_j = v_j·w and
    β_j = √(w·w), which is what ``np.linalg.norm`` computes."""
    return float(x @ y)


def _lanczos_vectors(
    apply: _Operator, v: np.ndarray, alpha: list[float], beta: list[float],
    v_prev: np.ndarray | None = None, j: int = 0,
) -> Iterator[np.ndarray]:
    """The Lanczos vectors v_j = v, v_{j+1}, … of ``apply`` on the zero-sum
    subspace from step j, v_prev being v_{j−1} (a first pass starts at
    v_0), without reorthogonalization: β_j·v_{j+1} is apply(v_j) less its
    mean, α_j·v_j and β_{j−1}·v_{j−1}.  α_j and β_j come from the lists
    when they hold them (a replay) and are appended otherwise (a first
    pass), so a replay yields the first pass's vectors bit for bit.  Ends
    when β_j ≤ 10⁻¹²·(|α_j| + β_{j−1}): the Krylov space is invariant."""
    from scipy.linalg.blas import daxpy

    while True:
        yield v
        w = apply(v)
        w -= w.sum() / w.size
        if j == len(alpha):
            alpha.append(_dot(v, w))
        daxpy(v, w, a=-alpha[j])
        if j:
            daxpy(v_prev, w, a=-beta[j - 1])
        if j == len(beta):
            beta.append(math.sqrt(_dot(w, w)))
        if beta[j] <= 1e-12 * (abs(alpha[j]) + (beta[j - 1] if j else 0.0)):
            return
        w *= 1.0 / beta[j]
        v_prev, v, j = v, w, j + 1


def _tridiagonal_pair(d: np.ndarray, e: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    """Eigenpair k (0 the bottom) of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, from the two LAPACK routines that
    ``eigh_tridiagonal(select="i")`` runs, called directly: bisection
    (dstebz, range I, block order, abstol 0), then inverse iteration
    (dstein)."""
    from scipy.linalg import LinAlgError
    from scipy.linalg.lapack import dstebz, dstein

    if len(d) == 1:
        return float(d[0]), np.ones(1)
    _, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, k + 1, k + 1, 0.0, "B")
    if info:
        raise LinAlgError(f"dstebz did not converge (LAPACK info={info})")
    z, info = dstein(d, e, w[:1], iblock, isplit)
    if info:
        raise LinAlgError(f"dstein did not converge (LAPACK info={info})")
    return float(w[0]), z[:, 0]


def _lanczos(
    M: sp.csr_matrix, apply: _Operator, ends: tuple[int, ...],
    sign: float | None, cap: int,
) -> tuple[list[float], float]:
    """Eigenvalues of M on the zero-sum subspace by plain Lanczos on
    ``apply``: M itself when ``sign`` is None, at the ``ends`` of T_m's
    spectrum (0 the bottom, −1 the top); else the inverse of I − sign·M,
    whose top Ritz value μ gives λ = sign·(1 − 1/μ).  Returns ([λ], residual).

    The first pass writes v_0, v_1, … into one buffer of _BASIS_CELLS
    entries while it has room.  Every 20th step (3rd under shift-invert)
    it takes the end eigenpairs (θ, s) of T_m and stops once each Ritz
    estimate |β_m·s_m| is below tolerance; under shift-invert 2|β_m·s_m|/|μ|
    bounds the residual on M.  After a checkpoint that solved every end,
    the next one solves the end whose estimate was largest there first,
    and the others only if it passes: the pass stops at the same step.
    The cap and an invariant Krylov space solve every end.  Lost
    orthogonality only adds copies of converged Ritz values (Paige, Lin.
    Alg. Appl. 34, 1980), so the extremes converge.  y = V_m·s sums the
    stored vectors, and a replay of the recurrence from the last two of
    them forms the rest, bit for bit as the first pass did; ‖My − λy‖/‖y‖
    is measured on M, and if it misses _CONVERGED_BOUND the first pass
    goes on.  At ``cap`` steps the residual is NaN."""
    from scipy.linalg.blas import daxpy

    n = M.shape[0]
    solver = "matvec" if sign is None else f"shift-invert at {sign:+g}"
    every, tol = (20, _RESIDUAL_TOL) if sign is None else (3, _SHIFT_INVERT_TOL)
    start = _start_vector(n)
    alpha: list[float] = []
    beta: list[float] = []
    basis = np.empty((min(_BASIS_CELLS // n, cap + 1), n))  # pages touched when written
    vectors = _lanczos_vectors(apply, start, alpha, beta)
    lagging: int | None = None  # the end with the largest estimate when all were last solved
    solved = 0  # tridiagonal eigenpairs
    for m in range(cap + 1):
        v = next(vectors, None)
        exhausted = v is None
        if not exhausted and m < len(basis):
            basis[m] = v
        if not (m and (exhausted or m % every == 0 or m == cap)):
            continue
        d, e = np.array(alpha), np.array(beta[: m - 1])
        pairs: dict[int, tuple[float, np.ndarray]] = {}
        if lagging is not None and not (exhausted or m == cap):
            pairs[lagging] = _tridiagonal_pair(d, e, ends[lagging] % m)
            solved += 1
            mu, s = pairs[lagging]
            if not _ritz(np.array([mu]), s[:, None], beta[-1], sign)[1][0] < tol:
                continue
        for i, end in enumerate(ends):
            if i not in pairs:
                pairs[i] = _tridiagonal_pair(d, e, end % m)
                solved += 1
        theta = np.array([pairs[i][0] for i in range(len(ends))])
        S = np.column_stack([pairs[i][1] for i in range(len(ends))])
        lams, estimates = _ritz(theta, S, beta[-1], sign)
        lagging, estimate = int(np.argmax(estimates)), float(np.max(estimates))
        if not (exhausted or estimate < tol):
            continue
        k = min(m, len(basis)) - 1  # the last stored vector of V_m
        if k < 0:
            replay = _lanczos_vectors(apply, start, alpha, beta)
        else:
            replay = itertools.chain(basis[:k], _lanczos_vectors(
                apply, basis[k], alpha, beta, basis[k - 1] if k else None, k))
        Y = np.zeros((len(ends), n))
        for s, v in zip(S, replay):
            for y, coef in zip(Y, s):
                daxpy(v, y, a=coef)
        res = max(
            np.linalg.norm(M @ y - lam * y) / np.linalg.norm(y)
            for y, lam in zip(Y, lams)
        )
        # the pass has applied the operator to v_0 … v_{m−1}, the replay
        # to v_k … v_{m−2} (to v_0 … v_{m−2} when nothing is stored)
        _log.debug(
            "%s Lanczos, %d steps (%d operator applications in the first pass, "
            "%d in the replay, %d tridiagonal eigenpairs): Ritz estimate %.3g, "
            "residual on M %.3g",
            solver, m, m, m - 1 - max(k, 0), solved, estimate, res,
        )
        if res <= _CONVERGED_BOUND or exhausted:
            return lams.tolist(), float(res)
    _log.debug(
        "%s Lanczos reached its %d-step cap unconverged after %d tridiagonal eigenpairs",
        solver, cap, solved,
    )
    return lams.tolist(), math.nan


def _ritz(
    theta: np.ndarray, S: np.ndarray, beta_m: float, sign: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of M that the Ritz pairs (θ, s), the columns of S,
    stand for, and their estimates |β_m·s_m| (2|β_m·s_m|/|μ| under
    shift-invert)."""
    if sign is None:
        return theta, beta_m * np.abs(S[-1])
    if abs(theta[0]) < 1e-13:
        raise ArithmeticError("shift-invert spectrum collapsed")
    return sign * (1.0 - 1.0 / theta), beta_m * np.abs(S[-1]) * (2.0 / np.abs(theta))


def _shift_invert_extreme(
    M: sp.csr_matrix, sign: float, order: np.ndarray
) -> tuple[float, float]:
    """Eigenvalue of M nearest the ``sign`` end on the zero-sum subspace,
    via Lanczos on the inverse of I − sign·M on ``order``.  Returns
    (eigenvalue, residual measured on M); raises ArithmeticError when the
    residual misses _CONVERGED_BOUND."""
    lu = _grounded_lu(M, sign, order)

    def solve(v: np.ndarray) -> np.ndarray:
        # a grounded inverse amplifies any trace of the constants in its input
        w = np.zeros_like(v)
        w[order] = lu.solve(v[order] - v.sum() / v.size)
        return w

    (lam,), res = _lanczos(M, solve, (-1,), sign, _SHIFT_INVERT_STEPS)
    if not res <= _CONVERGED_BOUND:
        raise ArithmeticError(f"shift-invert at {sign:+g} left residual {res:.3g} on M")
    return lam, res


def _iterative_extremes(
    M: sp.csr_matrix, n: int, colors: tuple[int, ...] | None, banded: bool
) -> tuple[float, float, float]:
    """(λ_min, λ_max, residual) on the zero-sum subspace.  Given a
    2-coloring, only λ_max is solved; the sign vector certifies λ_min = −1.
    With ``banded`` false no banded order is tried: matvec Lanczos alone."""
    order = _banded_order(M, n) if banded else None
    res = math.nan
    if order is not None:
        try:
            hi, res = _shift_invert_extreme(M, +1.0, order[1:])
            if colors is None:
                lo, res_lo = _shift_invert_extreme(M, -1.0, order)
                res = max(res, res_lo)
        except ArithmeticError as err:
            # the residual is measured on M itself, so a shift-invert run
            # that missed is detected and handed to the matvec recurrence
            _log.debug("falling back to matvec Lanczos: %s", err)
            res = math.nan
    if not res <= _CONVERGED_BOUND:
        ends = (-1,) if colors is not None else (0, -1)
        lams, res = _lanczos(M, _csr_product(M), ends, None, _ITERATION_CAP)
        lo, hi = lams[0], lams[-1]
    if colors is not None:
        sign = np.where(np.asarray(colors) == 0, 1.0, -1.0) / math.sqrt(n)
        lo = -1.0
        res = max(res, float(np.linalg.norm(M @ sign + sign)))
    return lo, hi, res


# ---------------------------------------------------------------------------
# ρ₀ of finite graphs
# ---------------------------------------------------------------------------


def rho0(g: SchreierGraph) -> SpectralReport:
    """Norm of M on the zero-sum subspace of a finite connected graph.

    Deflated Lanczos at every size, on M or shift-inverted by bandwidth
    (see the module docstring), with the measured residual as
    ``error_bound``; a run that reaches the iteration cap is reported
    unconverged.  Bipartite inputs get the −1 eigenvalue certified by the
    sign vector, and ``rho0_strict`` = |λ_max| by symmetry.
    """
    require_whole(g, "rho0")
    n, d = g.n, g.degree
    colors = bipartition(g)
    bip = colors is not None
    if n == 1:
        return SpectralReport(
            d=d, n=1, rho0=0.0, rho0_nonneg=0.0, bipartite=bip,
            error_bound=0.0, rho0_strict=0.0, converged=True,
        )
    banded = not _band_too_wide(n, d, int(g.root_depths.max()))
    lo, hi, res = _iterative_extremes(markov_matrix(g), n, colors, banded)
    value = max(abs(lo), abs(hi))
    strict = abs(hi) if bip else value
    return SpectralReport(
        d=d, n=n, rho0=min(value, 1.0), rho0_nonneg=hi, bipartite=bip,
        error_bound=res, rho0_strict=min(strict, 1.0),
        converged=bool(res <= _CONVERGED_BOUND),
    )


# ---------------------------------------------------------------------------
# ρ of infinite graphs through return counts
# ---------------------------------------------------------------------------


def estimate_rho_returns(source: SchreierGraph, horizon: int) -> tuple[float, ...]:
    """Certified lower bounds r_1, …, r_{H/2} for ρ from exact return
    counts, none above the last, so the best is last.

    The even return counts c_k = |P_{2k}| are c_k = ‖A^k δ‖² for the
    adjacency operator A and the root's indicator δ, so Cauchy–Schwarz,
    ⟨A^{k−1}δ, A^{k+1}δ⟩² ≤ c_{k−1}·c_{k+1}, makes them log-convex; with
    c_0 = 1 that makes log c_k / k, and so r_n = (p_{2n})^{1/2n},
    nondecreasing, and every r_n bounds ρ from below.  The check is
    exact: the first k with c_k² > c_{k−1}·c_{k+1} raises.

    Each r_n is computed in floats and can land an ulp above its exact
    value (1.0000000000000002 where ρ = 1).  So the last is checked
    exactly, stepped down until (r·d)^H ≤ c_{H/2} holds in integers, and
    every earlier float is capped at it: each returned value is at most
    the exact r_{H/2}, and so at most ρ.

    Accepts a core (exact at every horizon) or a truncated graph with
    radius ≥ horizon/2.
    """
    if horizon < 2 or horizon % 2:
        raise ValueError("horizon must be even and at least 2")
    counts = return_counts(source, source.root, horizon)
    d = source.degree
    evens = counts[::2]  # c_0 = 1, c_1, …, c_{H/2}
    for k in range(1, horizon // 2):
        if evens[k] ** 2 > evens[k - 1] * evens[k + 1]:
            raise InequalityViolation(
                f"return counts lost log-convexity at 2n = {2 * k}"
            )
    bounds = [
        math.exp((math.log(c) - 2 * k * math.log(d)) / (2 * k))
        for k, c in enumerate(evens[1:], start=1)
    ]
    last = _at_most_root(bounds[-1], evens[-1], d, horizon)
    return tuple(min(r, last) for r in bounds)


_ULP_SLACK = 64  # ulps a rounded root may lie above its exact value


def _at_most_root(r: float, count: int, d: int, power: int) -> float:
    """The largest float ≤ ``r`` with (r·d)^power ≤ ``count``, compared
    exactly: r = m/e, and (m·d)^power ≤ count·e^power in integers, e being
    a power of two.  ``r`` is a root rounded through log and exp, within
    about log d ulps of its exact value, so a float more than
    ``_ULP_SLACK`` ulps above it comes from a wrong float path, and raises."""
    for _ in range(_ULP_SLACK + 1):
        m, e = r.as_integer_ratio()
        if (m * d) ** power <= count << power * (e.bit_length() - 1):
            return r
        r = math.nextafter(r, 0.0)
    raise AssertionError(f"r_{power // 2} lies over {_ULP_SLACK} ulps above its exact value")


def tree_rho(d: int) -> float:
    """ρ of the d-regular tree by its closed form 2√(d−1)/d (Kesten,
    "Symmetric random walks on groups", 1959), to 12 digits: 1.0 at d = 2.

    ``tests/test_spectral.py::TestTreeRho`` checks it against the
    certified lower bound from exact tree return counts.
    """
    if d < 2:
        raise ValueError("tree degree must be at least 2")
    return float(f"{2.0 * math.sqrt(d - 1) / d:.12g}")


@dataclass(frozen=True)
class RamanujanVerdict:
    """ρ₀ against the degree-matched tree threshold, in both readings.

    ``ramanujan`` uses the paper's ρ₀ (|λ|, bipartite −1 included);
    ``ramanujan_strict`` discards the forced −1 of bipartite inputs.
    Both comparisons carry the solver's error bound, and ``equality``
    flags verdicts decided at the threshold itself (e.g. cycles, where
    ρ₀ = ρ(T₂) = 1 exactly).  All three come from one solve, certified
    ``lanczos-residual`` when it converged, else ``undecided`` with value
    None.
    """

    threshold: float
    ramanujan: Verdict
    ramanujan_strict: Verdict
    equality: Verdict
    report: SpectralReport


def ramanujan_check(g: SchreierGraph) -> RamanujanVerdict:
    report = rho0(g)
    threshold = tree_rho(g.degree)
    slack = report.error_bound + 1e-12
    holds = (
        report.rho0 <= threshold + slack,
        report.rho0_strict <= threshold + slack,
        abs(report.rho0 - threshold) <= max(report.error_bound, 1e-9),
    )
    if report.converged:
        verdicts = [Verdict(bool(h), "lanczos-residual") for h in holds]
    else:
        verdicts = [Verdict(None, "undecided")] * 3
    return RamanujanVerdict(threshold, *verdicts, report)


# ---------------------------------------------------------------------------
# Averaged permutation operators over label supports
# ---------------------------------------------------------------------------


def _support_action(act: PermAction, support: Sequence[int | str | None]) -> PermAction:
    """The support as an action on ``act``'s points, one fresh label per
    entry: label names or indices, None (or "e") for the identity, as many
    copies of each label as of its inverse.  A label is named after its
    entry, with ``_2``, ``_3``, … on repeats; the identity and involutions
    are self-inverse, and every other entry is paired with the first later
    unpaired entry of its inverse label."""
    gens = act.gens
    entries: list[int | None] = []
    for entry in support:
        if entry is None or entry == "e":
            entries.append(None)
        elif isinstance(entry, str):
            entries.append(gens.index(entry))
        elif 0 <= entry < gens.degree:
            entries.append(entry)
        else:
            raise ValueError(f"label index {entry} out of range")
    if not entries:
        raise ValueError("support is empty")
    for l in set(entries):
        if l is not None and entries.count(l) != entries.count(gens.inv[l]):
            raise ValueError(
                f"support is not symmetric: {gens.labels[l]!r} and its inverse "
                "appear a different number of times"
            )
    columns: list[int | None] = []
    inv: list[int] = []
    waiting: Counter = Counter()  # later entries whose label a pair already made
    for l in entries:
        if waiting[l]:
            waiting[l] -= 1
        elif l is None or gens.inv[l] == l:
            inv.append(len(columns))
            columns.append(l)
        else:
            inv += [len(columns) + 1, len(columns)]
            columns += [l, gens.inv[l]]
            waiting[gens.inv[l]] += 1
    stems = ["e" if l is None else gens.labels[l] for l in columns]
    names = [s if s not in stems[:i] else f"{s}_{stems[:i].count(s) + 1}"
             for i, s in enumerate(stems)]
    table = np.column_stack([act.slots, np.arange(act.degree)])  # d: the identity
    slots = table[:, [gens.degree if l is None else l for l in columns]]
    return PermAction._checked(GenSet(tuple(names), tuple(inv)), slots)


def support_subgroup_graph(
    act: PermAction, support: Sequence[int | str | None], base: int = 0
) -> SchreierGraph:
    """The orbit of ``base`` under the support labels only, as a graph
    over a fresh alphabet with one slot per multiset entry.

    For a regular action this is the Cayley graph of the subgroup the
    support generates; ``support_copies`` checks that every orbit is a
    copy of it.
    """
    return from_perm_action(_support_action(act, support), base=base)


def support_copies(
    act: PermAction, support: Sequence[int | str | None]
) -> tuple[SchreierGraph, int]:
    """The support's orbit graph of point 0 and the orbit count (the
    index), when every orbit is a copy of that graph: the averaged
    operator is then index copies of the graph's Markov operator.  On a
    regular action each orbit is a coset of the subgroup the support
    generates.

    The first points of all orbits follow the graph's canonical BFS tree
    at once, and the slots they reach must match the graph's table.  The
    points reached are then closed under the labels, so an orbit has at
    most m = graph.n points, and index·m = n makes every match an
    isomorphism.  Other actions are refused with a ValueError, as is,
    before any graph is built, an orbit of point 0 above DENSE_THRESHOLD,
    whose spectrum markov_spectrum would refuse.
    """
    from scipy.sparse.csgraph import connected_components

    sub = _support_action(act, support)
    table = sub.slots
    _, orbit = connected_components(_averaging_matrix(table), directed=False)
    _refuse_dense(np.count_nonzero(orbit == orbit[0]))
    graph = from_perm_action(sub)
    rows = graph.slots
    m, k = rows.shape
    # each vertex's tree slot is its first in row order, which lies in the
    # layer before, so parents never decrease along the numbering
    parent, label = np.divmod(np.unique(rows, return_index=True)[1], k)
    parent[0] = -1  # the root has none
    roots = np.unique(orbit, return_index=True)[1]  # each orbit's first point
    points = np.empty((len(roots), m), dtype=np.int64)
    points[:, 0] = roots
    placed = 1
    while placed < m:  # the next layer: the vertices whose parent is placed
        layer = slice(placed, int(np.searchsorted(parent, placed)))
        points[:, layer] = table[points[:, parent[layer]], label[layer]]
        placed = layer.stop
    if len(roots) * m != len(table) or (table[points] != points[:, rows]).any():
        raise ValueError(
            "the support's orbits are not copies of the orbit of point 0; "
            "the copies statement needs a regular action"
        )
    return graph, len(roots)


@dataclass(frozen=True)
class ProductReturnBound:
    """P(g₁⋯g_k fixes the base point) against Π ‖M(g_i)‖, exactly on both
    sides.  For a regular action the left side is P(g₁⋯g_k = e).  On a
    finite action each M(g_i) is an average of permutation operators that
    fixes the constants, so its norm is exactly 1: the check cannot fail,
    it only shows the probability is at most 1."""

    degree: int
    probability: Fraction
    norms: tuple[float, ...]

    def __post_init__(self) -> None:
        if float(self.probability) > self.bound + 1e-9:
            raise InequalityViolation(
                f"return probability {self.probability} exceeds the norm "
                f"product {self.bound}"
            )

    @property
    def bound(self) -> float:
        return math.prod(self.norms)


def product_return_bound(
    act: PermAction,
    supports: Sequence[Sequence[int | str | None]],
    base: int = 0,
) -> ProductReturnBound:
    """Exact convolution of independent uniform support steps in integers; every norm is 1."""
    if not supports:
        raise ValueError("need at least one support")
    if not 0 <= base < act.degree:
        raise ValueError(f"point {base} is not a point of the action (0..{act.degree - 1})")
    counts = np.zeros(act.degree, dtype=object)  # entry sequences reaching each point
    counts[base] = 1
    for support in supports:
        moved = np.zeros(act.degree, dtype=object)
        for column in _support_action(act, support).slots.T:  # a permutation
            moved[column] += counts
        counts = moved
    probability = Fraction(counts[base], math.prod(map(len, supports)))
    norms = (1.0,) * len(supports)
    return ProductReturnBound(degree=act.degree, probability=probability, norms=norms)
