"""Spectra of Markov averaging operators on Schreier graphs.

Finite graphs get ρ₀ from deflated Lanczos at every size, with explicit
residual bounds; the dense spectrum (``markov_spectrum``) is kept for
callers that need every eigenvalue.  Infinite graphs described by cores
or deep truncations get certified lower bounds on the spectral radius
through exact return counts, since r_n = (p_{2n})^{1/2n} increases to ρ.

Lanczos picks its solver from the graph's bandwidth b in reverse
Cuthill–McKee order: shift-invert Lanczos on banded LU factors of
I ∓ M (I − M grounded at one vertex) when 2·n·(b+1) ≤
_SPLU_FILL_CAP·nnz(I − M), as on cycles and tori with their small
spectral gaps; else thick-restart Lanczos on plain matrix-vector
products (expanders), which also takes over a shift-invert run that
fails.  A bipartite M has D·M·D = −M for D the diagonal of the
2-coloring sign vector, so the sign vector certifies λ = −1, λ_min off
{1, −1} is −λ_max, and only the top end is solved.  Both solvers share
one Lanczos step: known coefficients first, then one reorthogonalization
pass, and a second only when the DGKS test asks (see _lanczos_step).
Every ``error_bound`` is a residual ‖My − θy‖ measured on M itself for
the Ritz pairs returned (thick-restart as well as shift-invert) and the
sign vector of a bipartite M, which bounds the eigenvalue error for
symmetric M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from schreier.builders import (
    CoreGraph,
    from_perm_action,
    tree_core,
)
from schreier.core import (
    GenSet,
    GraphInvariantError,
    InequalityViolation,
    PermAction,
    SchreierGraph,
)
from schreier.walks import return_counts

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
    "averaged_operator",
    "distribution_operator_norm",
    "support_subgroup_graph",
    "product_return_bound",
]

DENSE_THRESHOLD = 4096
_SPLU_FILL_CAP = 64.0       # banded LU above this × nnz(I − M) → matvec Lanczos
_RESIDUAL_TOL = 1e-9        # thick-restart Ritz residuals
_SHIFT_INVERT_TOL = 1e-10   # shift-invert residual on M
_SHIFT_INVERT_DIM = 300     # Krylov dimension of one shift-invert solve
_SEED = 0                   # start vectors, so reports are reproducible
_CONVERGED_BOUND = 1e-8
_ITERATION_CAP = 10_000


def markov_matrix(g: SchreierGraph) -> sp.csr_matrix:
    """M = A/d with A the labeled adjacency matrix counting multiplicity."""
    if g.truncated:
        raise ValueError("the Markov operator needs the whole graph, not a truncation")
    d = g.degree
    cols = g.slots.ravel()
    rows = np.repeat(np.arange(g.n), d)
    data = np.full(cols.size, 1.0 / d)
    return sp.csr_matrix((data, (rows, cols)), shape=(g.n, g.n))


def bipartition(g: SchreierGraph) -> tuple[int, ...] | None:
    """A proper 2-coloring over the stored edges, or None if an odd closed
    walk exists.  (For cores the coloring extends to the hanging trees, so
    the answer is about the full graph the core describes.)  A connected
    graph has at most one with the root at 0: root-distance parity."""
    color = np.array(g.root_distances) & 1
    slots = g.slots
    if (color[slots] == color[:, None])[slots >= 0].any():
        return None
    return tuple(color.tolist())


def markov_spectrum(g: SchreierGraph) -> np.ndarray:
    """All eigenvalues of M, ascending, by a dense solve; sizes above
    DENSE_THRESHOLD are refused.  ρ₀ alone comes from rho0(), which
    needs only the extremes and solves them iteratively."""
    if g.n > DENSE_THRESHOLD:
        raise ValueError(
            f"n = {g.n} exceeds the dense threshold {DENSE_THRESHOLD}; "
            "rho0() computes extreme eigenvalues iteratively"
        )
    evs = np.linalg.eigvalsh(markov_matrix(g).toarray())
    if abs(evs[-1] - 1.0) > 1e-9:
        raise GraphInvariantError("top eigenvalue of a stochastic operator is not 1")
    return evs


@dataclass(frozen=True)
class SpectralReport:
    """Immutable record of one spectral computation.

    ``rho0`` is max |λ| over the zero-sum subspace (the paper's operator
    norm); ``rho0_nonneg`` is the signed largest nontrivial eigenvalue;
    ``rho0_strict`` additionally discards the −1 eigenvalue forced by
    bipartiteness.  ``method="iterative"`` reports carry the measured
    Lanczos residual as ``error_bound``.  For
    ``method="returns-extrapolation"`` the value is a certified lower bound
    for ρ and ``extrapolated`` carries the heuristic point estimate (never
    used in assertions).
    """

    d: int
    n: int
    rho0: float
    rho0_nonneg: float
    bipartite: bool
    method: str
    error_bound: float
    rho0_strict: float | None = None
    converged: bool = True
    return_sequence: tuple[float, ...] | None = None
    extrapolated: float | None = None

    def __post_init__(self) -> None:
        if self.method not in ("iterative", "returns-extrapolation"):
            raise ValueError(f"unknown method {self.method!r}")
        if not -1e-9 <= self.rho0 <= 1 + 1e-9:
            raise GraphInvariantError(
                f"spectral radius estimate {self.rho0} escaped [0, 1]"
            )


# ---------------------------------------------------------------------------
# Iterative extreme-eigenvalue machinery
# ---------------------------------------------------------------------------


def _banded_order(M: sp.csr_matrix, n: int) -> np.ndarray | None:
    """The vertices in reverse Cuthill–McKee order, or None when banded LU
    factors of I ∓ M in that order would not fit:
    2·n·(b+1) > _SPLU_FILL_CAP·nnz(I − M), with b the bandwidth."""
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
    A = sp.identity(M.shape[0], format="csr") - M.multiply(sign)
    return spla.splu(
        A[order][:, order].tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0
    )


def _start_vector(D: np.ndarray) -> np.ndarray:
    """The seeded random unit vector orthogonal to the columns of D."""
    v = np.random.default_rng(_SEED).standard_normal(D.shape[0])
    v -= D @ (D.T @ v)
    return v / np.linalg.norm(v)


def _lanczos_step(
    V: np.ndarray, H: np.ndarray, j: int, w: np.ndarray, D: np.ndarray
) -> float:
    """Extend the column-major basis V[:, :j+1] by w, the operator applied
    to V[:, j].  After projecting out D, subtract the coefficients the
    step already knows, H[:j, j] (β_{j−1}, or the arrowhead row after a
    thick restart) on its nonzero columns, then α·V[:, j] with α = V[:, j]·w.
    One classical Gram–Schmidt pass against V[:, :j+1] follows, and a
    second only when the first left at most 1/√2 of the norm (the DGKS
    criterion: Daniel–Gragg–Kaufman–Stewart, Math. Comp. 30, 1976, as in
    ARPACK's dsaitr), so each step reads the basis about twice.  Column
    and row j of H get the known plus projected coefficients, β = ‖w‖
    goes beside them, and w/β becomes V[:, j+1].  Returns β."""
    w -= D @ (D.T @ w)
    h = H[: j + 1, j].copy()
    lo = int(np.argmax(h != 0))
    w -= V[:, lo:j] @ h[lo:j]
    h[j] = V[:, j] @ w
    w -= h[j] * V[:, j]
    for _ in range(2):
        before = np.linalg.norm(w)
        proj = V[:, : j + 1].T @ w
        w -= V[:, : j + 1] @ proj
        h += proj
        beta = float(np.linalg.norm(w))
        if beta > math.sqrt(0.5) * before:
            break
    H[: j + 1, j] = H[j, : j + 1] = h
    H[j + 1, j] = H[j, j + 1] = beta
    if beta > 0.0:
        V[:, j + 1] = w / beta
    return beta


def _shift_invert_extreme(
    M: sp.csr_matrix, D: np.ndarray, sign: float, order: np.ndarray
) -> tuple[float, float]:
    """Eigenvalue of M nearest the ``sign`` end, orthogonally to the
    columns of D, via Lanczos on the inverse of I − sign·M on ``order``.
    Returns (eigenvalue, residual norm measured on M itself)."""
    n = M.shape[0]
    lu = _grounded_lu(M, sign, order)
    V = np.empty((n, _SHIFT_INVERT_DIM + 1), order="F")
    V[:, 0] = _start_vector(D)
    H = np.zeros((_SHIFT_INVERT_DIM + 1, _SHIFT_INVERT_DIM + 1))
    for m in range(1, _SHIFT_INVERT_DIM + 1):
        # a grounded inverse amplifies any trace of D in its input
        v = V[:, m - 1] - D @ (D.T @ V[:, m - 1])
        w = np.zeros(n)
        w[order] = lu.solve(v[order])
        exhausted = _lanczos_step(V, H, m - 1, w, D) <= 1e-12
        if not (exhausted or m % 3 == 0 or m == _SHIFT_INVERT_DIM):
            continue
        mu, S = np.linalg.eigh(H[:m, :m])
        if abs(mu[-1]) < 1e-13:
            raise ArithmeticError("shift-invert spectrum collapsed")
        y = V[:, :m] @ S[:, -1]
        lam = float(sign * (1.0 - 1.0 / mu[-1]))
        res = float(np.linalg.norm(M @ y - lam * y))
        if res < _SHIFT_INVERT_TOL or exhausted:
            break
    return lam, res


def _ritz_extremes(
    M: sp.csr_matrix, V: np.ndarray, H: np.ndarray, m: int
) -> tuple[float, float, float]:
    """(λ_min, λ_max) of H[:m, :m] and the larger residual ‖My − θy‖/‖y‖
    of their Ritz vectors y = V[:, :m]·s, measured on M itself."""
    theta, S = np.linalg.eigh(H[:m, :m])
    Y = V[:, :m] @ S[:, [0, -1]]
    R = M @ Y - Y * theta[[0, -1]]
    res = np.linalg.norm(R, axis=0) / np.linalg.norm(Y, axis=0)
    return float(theta[0]), float(theta[-1]), float(res.max())


def _restart_lanczos_extremes(
    M: sp.csr_matrix, D: np.ndarray
) -> tuple[float, float, float]:
    """Both extreme eigenvalues of M on the orthogonal complement of the
    columns of D, by thick-restart Lanczos with full reorthogonalization.
    The Ritz estimates |β·s_m| decide when to stop.  Returns (λ_min,
    λ_max, residual measured on M, or NaN at the iteration cap)."""
    n = M.shape[0]
    m_max = min(n - D.shape[1], 80)
    keep = min(10, max(2, m_max - 2))
    V = np.empty((n, m_max + 1), order="F")
    V[:, 0] = _start_vector(D)
    H = np.zeros((m_max + 1, m_max + 1))
    j = 0
    total = 0
    while total < _ITERATION_CAP:
        while j < m_max:
            beta = _lanczos_step(V, H, j, M @ V[:, j], D)
            total += 1
            if beta < 1e-14:
                return _ritz_extremes(M, V, H, j + 1)
            j += 1
        theta, S = np.linalg.eigh(H[:m_max, :m_max])
        beta = H[m_max, m_max - 1]
        if abs(beta) * np.abs(S[m_max - 1, [0, -1]]).max() < _RESIDUAL_TOL:
            return _ritz_extremes(M, V, H, m_max)
        idx = list(range(keep // 2)) + list(range(m_max - (keep - keep // 2), m_max))
        Y = V[:, :m_max] @ S[:, idx]
        V[:, :keep] = Y
        V[:, keep] = V[:, m_max]
        H[:, :] = 0.0
        H[:keep, :keep] = np.diag(theta[idx])
        H[keep, :keep] = H[:keep, keep] = beta * S[m_max - 1, idx]
        j = keep
    theta = np.linalg.eigvalsh(H[:j, :j])
    return float(theta[0]), float(theta[-1]), float("nan")


def _iterative_extremes(
    M: sp.csr_matrix, n: int, colors: tuple[int, ...] | None
) -> tuple[float, float, float]:
    """(λ_min, λ_max, residual) on the zero-sum subspace.  Given a
    2-coloring, only λ_max is solved; the sign vector certifies λ_min = −1."""
    D = np.full((n, 1), 1.0 / math.sqrt(n))
    order = _banded_order(M, n)
    res = math.nan
    if order is not None:
        try:
            hi, res = _shift_invert_extreme(M, D, +1.0, order[1:])
            if colors is None:
                lo, res_lo = _shift_invert_extreme(M, D, -1.0, order)
                res = max(res, res_lo)
        except ArithmeticError:
            res = math.nan
    # the residual is measured on M itself, so a shift-invert run that
    # missed is detected and handed to the matvec-only solver
    if not res <= _CONVERGED_BOUND:
        lo, hi, res = _restart_lanczos_extremes(M, D)
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

    Deflated Lanczos at every size, shift-invert or thick-restart by
    bandwidth (see the module docstring), with the measured residual as
    ``error_bound``; a run that reaches the iteration cap is reported
    unconverged.  Bipartite inputs get the −1 eigenvalue certified by the
    sign vector, and ``rho0_strict`` = |λ_max| by symmetry.
    """
    if g.truncated:
        raise ValueError(
            "rho0 is for whole finite graphs; estimate_rho_returns handles truncations"
        )
    n, d = g.n, g.degree
    colors = bipartition(g)
    bip = colors is not None
    if n == 1:
        return SpectralReport(
            d=d, n=1, rho0=0.0, rho0_nonneg=0.0, bipartite=bip, method="iterative",
            error_bound=0.0, rho0_strict=0.0,
        )
    lo, hi, res = _iterative_extremes(markov_matrix(g), n, colors)
    value = max(abs(lo), abs(hi))
    strict = abs(hi) if bip else value
    return SpectralReport(
        d=d, n=n, rho0=min(value, 1.0), rho0_nonneg=hi, bipartite=bip,
        method="iterative", error_bound=res, rho0_strict=min(strict, 1.0),
        converged=bool(res <= _CONVERGED_BOUND),
    )


# ---------------------------------------------------------------------------
# ρ of infinite graphs through return counts
# ---------------------------------------------------------------------------


def _neville_to_zero(points: Sequence[tuple[float, float]]) -> float:
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    for level in range(1, len(xs)):
        for i in range(len(xs) - level):
            ys[i] = ys[i] + (ys[i + 1] - ys[i]) * (0.0 - xs[i]) / (
                xs[i + level] - xs[i]
            )
    return ys[0]


def estimate_rho_returns(
    source: CoreGraph | SchreierGraph, horizon: int
) -> SpectralReport:
    """Certified lower bound for ρ from exact return counts.

    The sequence r_n = (p_{2n})^{1/2n} is nondecreasing (return counts
    are supermultiplicative), so its last value bounds ρ from below; the
    monotonicity c_{k+1}^k ≥ c_k^{k+1} of the even return counts c_k =
    |P_{2k}| is re-checked on every pair.  A float filter passes a pair
    when the gap G = k·log c_{k+1} − (k+1)·log c_k exceeds 10⁻⁹·S, with
    S = k(1 + log c_{k+1}) + (k+1)(1 + log c_k): ``math.log`` of an int
    is within 2⁻⁵⁰(1 + log c) of the true value, so the computed G is
    within 2⁻⁴⁹·S of the true one and the margin is over 5·10⁵ times that
    error.  Every other pair, equality and every violation included, is
    decided in exact integer arithmetic.  A 3-point Richardson
    extrapolation in 1/n gives the point estimate, reported separately
    and never asserted against.

    Accepts a core (exact at every horizon) or a truncated graph with
    radius ≥ horizon/2.
    """
    if horizon < 2 or horizon % 2:
        raise ValueError("horizon must be even and at least 2")
    g = source.graph if isinstance(source, CoreGraph) else source
    counts = return_counts(source, g.root, horizon)
    d = g.degree
    evens = [counts[2 * k] for k in range(1, horizon // 2 + 1)]
    logs = [math.log(c) if c else -math.inf for c in evens]
    for k in range(1, len(evens)):
        if evens[k] and evens[k - 1]:
            gap = k * logs[k] - (k + 1) * logs[k - 1]
            if gap > 1e-9 * (k * (1 + logs[k]) + (k + 1) * (1 + logs[k - 1])):
                continue
        if evens[k] ** k < evens[k - 1] ** (k + 1):
            raise InequalityViolation(
                f"return counts lost supermultiplicativity between 2n = {2 * k} "
                f"and {2 * k + 2}"
            )
    rs = [
        math.exp((log - 2 * k * math.log(d)) / (2 * k))
        for k, log in enumerate(logs, start=1)
    ]
    tail = [(1.0 / k, r) for k, r in enumerate(rs, start=1)][-3:]
    extrapolated = _neville_to_zero(tail)
    certified = rs[-1]
    return SpectralReport(
        d=d,
        n=horizon,
        rho0=certified,
        rho0_nonneg=certified,
        bipartite=bipartition(g) is not None,
        method="returns-extrapolation",
        error_bound=max(0.0, extrapolated - certified),
        return_sequence=tuple(rs),
        extrapolated=extrapolated,
    )


@lru_cache(maxsize=None)
def tree_rho(d: int) -> float:
    """ρ of the d-regular tree, to 12 digits.

    The stored value is the classical 2√(d−1)/d; each first use
    revalidates it against the certified monotone lower bound and the
    extrapolated point estimate from exact tree return counts.
    """
    if d < 2:
        raise ValueError("tree degree must be at least 2")
    if d == 2:
        return 1.0
    value = float(f"{2.0 * math.sqrt(d - 1) / d:.12g}")
    est = estimate_rho_returns(tree_core(d), 160)
    if est.rho0 > value + 1e-12:
        raise InequalityViolation(
            f"certified lower bound {est.rho0} exceeds the tree value {value}"
        )
    if value - est.rho0 > 0.05 or abs(est.extrapolated - value) > 0.02:
        raise GraphInvariantError(
            f"tree return counts disagree with 2*sqrt(d-1)/d at d={d}"
        )
    return value


@dataclass(frozen=True)
class RamanujanVerdict:
    """ρ₀ against the degree-matched tree threshold, in both readings.

    ``ramanujan`` uses the paper's ρ₀ (|λ|, bipartite −1 included);
    ``ramanujan_strict`` discards the forced −1 of bipartite inputs.
    Both comparisons carry the solver's error bound, and ``equality``
    flags verdicts decided at the threshold itself (e.g. cycles, where
    ρ₀ = ρ(T₂) = 1 exactly).  All three are None (undecided) when the
    solver did not converge.
    """

    degree: int
    threshold: float
    ramanujan: bool | None
    ramanujan_strict: bool | None
    equality: bool | None
    report: SpectralReport


def ramanujan_check(g: SchreierGraph) -> RamanujanVerdict:
    report = rho0(g)
    threshold = tree_rho(g.degree)
    if not report.converged:
        return RamanujanVerdict(g.degree, threshold, None, None, None, report)
    slack = report.error_bound + 1e-12
    return RamanujanVerdict(
        degree=g.degree,
        threshold=threshold,
        ramanujan=bool(report.rho0 <= threshold + slack),
        ramanujan_strict=bool(report.rho0_strict <= threshold + slack),
        equality=bool(abs(report.rho0 - threshold) <= max(report.error_bound, 1e-9)),
        report=report,
    )


# ---------------------------------------------------------------------------
# Averaged permutation operators over label supports
# ---------------------------------------------------------------------------


def _resolve_support(gens: GenSet, support: Sequence[int | str | None]) -> list[int | None]:
    """Label entries as indices; None (or "e") stands for the identity.
    The multiset must be symmetric: as many copies of each label as of
    its inverse."""
    out: list[int | None] = []
    for entry in support:
        if entry is None or entry == "e":
            out.append(None)
        elif isinstance(entry, str):
            out.append(gens.index(entry))
        else:
            if not 0 <= entry < gens.degree:
                raise ValueError(f"label index {entry} out of range")
            out.append(entry)
    if not out:
        raise ValueError("support is empty")
    for l in set(out):
        if l is not None and out.count(l) != out.count(gens.inv[l]):
            raise ValueError(
                f"support is not symmetric: {gens.labels[l]!r} and its inverse "
                "appear a different number of times"
            )
    return out


def averaged_operator(
    act: PermAction, support: Sequence[int | str | None]
) -> np.ndarray:
    """Dense matrix of f ↦ (1/|support|) Σ_s f(x·s) on point functions."""
    if act.degree > DENSE_THRESHOLD:
        raise ValueError("the averaged operator is dense; degree too large")
    entries = _resolve_support(act.gens, support)
    n = act.degree
    A = np.zeros((n, n))
    weight = 1.0 / len(entries)
    for entry in entries:
        if entry is None:
            A[np.arange(n), np.arange(n)] += weight
        else:
            A[np.arange(n), act.perms[entry]] += weight
    return A


def distribution_operator_norm(
    act: PermAction, support: Sequence[int | str | None]
) -> float:
    """Operator norm of the support-averaged permutation operator on the
    full point space (constants included, matching ρ of the subgroup's
    Cayley graph rather than ρ₀)."""
    evs = np.linalg.eigvalsh(averaged_operator(act, support))
    return float(max(abs(evs[0]), abs(evs[-1])))


def support_subgroup_graph(
    act: PermAction, support: Sequence[int | str | None], base: int = 0
) -> SchreierGraph:
    """The orbit of ``base`` under the support labels only, as a graph
    over a fresh alphabet with one slot per multiset entry.

    For a regular action this is the Cayley graph of the subgroup the
    support generates, so the full averaged-operator spectrum must be
    index-many copies of this graph's Markov spectrum.
    """
    entries = _resolve_support(act.gens, support)
    names: list[str] = []
    inv: list[int] = []
    paired: list[int | None] = [None] * len(entries)
    seen: dict[str, int] = {}

    def fresh(stem: str) -> str:
        seen[stem] = seen.get(stem, 0) + 1
        return stem if seen[stem] == 1 else f"{stem}_{seen[stem]}"

    for i, entry in enumerate(entries):
        if paired[i] is not None:
            continue
        if entry is None or act.gens.is_involution(entry):
            stem = "e" if entry is None else act.gens.labels[entry]
            names.append(fresh(stem))
            inv.append(len(names) - 1)
            paired[i] = len(names) - 1
        else:
            partner = next(
                j
                for j in range(i + 1, len(entries))
                if paired[j] is None and entries[j] == act.gens.inv[entry]
            )
            k = len(names)
            names += [fresh(act.gens.labels[entry]), fresh(act.gens.labels[entries[partner]])]
            inv += [k + 1, k]
            paired[i] = k
            paired[partner] = k + 1
    order = sorted(range(len(entries)), key=lambda i: paired[i])
    identity = tuple(range(act.degree))
    perms = tuple(
        identity if entries[i] is None else act.perms[entries[i]] for i in order
    )
    sub = PermAction(gens=GenSet(tuple(names), tuple(inv)), perms=perms)
    return from_perm_action(sub, base=base)


@dataclass(frozen=True)
class ProductReturnBound:
    """P(g₁⋯g_k fixes the base point) against Π ‖M(g_i)‖, exactly on the
    left and by dense eigensolve on the right.  For a regular action the
    left side is P(g₁⋯g_k = e)."""

    degree: int
    probability: Fraction
    norms: tuple[float, ...]

    def __post_init__(self) -> None:
        bound = math.prod(self.norms)
        if float(self.probability) > bound + 1e-9:
            raise InequalityViolation(
                f"return probability {self.probability} exceeds the norm "
                f"product {bound}"
            )

    @property
    def bound(self) -> float:
        return math.prod(self.norms)


def product_return_bound(
    act: PermAction,
    supports: Sequence[Sequence[int | str | None]],
    base: int = 0,
) -> ProductReturnBound:
    """Exact convolution of independent uniform support steps."""
    if not supports:
        raise ValueError("need at least one support")
    dist = [Fraction(0)] * act.degree
    dist[base] = Fraction(1)
    for support in supports:
        entries = _resolve_support(act.gens, support)
        nxt = [Fraction(0)] * act.degree
        w = Fraction(1, len(entries))
        for entry in entries:
            if entry is None:
                for x, p in enumerate(dist):
                    nxt[x] += p * w
            else:
                perm = act.perms[entry]
                for x, p in enumerate(dist):
                    if p:
                        nxt[perm[x]] += p * w
        dist = nxt
    norms = tuple(distribution_operator_norm(act, s) for s in supports)
    return ProductReturnBound(
        degree=act.degree, probability=dist[base], norms=norms
    )
