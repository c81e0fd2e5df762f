"""Spectra of Markov averaging operators on Schreier graphs.

Finite graphs get exact symmetric eigensolves (dense below a size
threshold, deflated Lanczos above, with explicit residual bounds).
Infinite graphs described by cores or deep truncations get certified
lower bounds on the spectral radius through exact return counts, since
r_n = (p_{2n})^{1/2n} increases to ρ.

Two solver strategies back the iterative path: shift-invert Lanczos
(fast whenever sparse LU factors of I ∓ M stay sparse, e.g. anything
with small separators) and thick-restart Lanczos on plain matrix-vector
products (the fallback for expanders, whose LU fill-in is quadratic).
The residual ‖Mv − λv‖ bounds the eigenvalue error for symmetric M, so
reports carry it as ``error_bound``.
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
from schreier.walks import core_return_counts, count_walks

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
_SPLU_LIMIT = 3000          # above this, skip LU attempts entirely
_SPLU_FILL_CAP = 64.0       # LU denser than this × nnz(A) → use matvec Lanczos
_RESIDUAL_TOL = 1e-9
_CONVERGED_BOUND = 1e-8
_ITERATION_CAP = 10_000


def markov_matrix(g: SchreierGraph) -> sp.csr_matrix:
    """M = A/d with A the labeled adjacency matrix counting multiplicity."""
    if g.truncated:
        raise ValueError("the Markov operator needs the whole graph, not a truncation")
    d = g.degree
    rows, cols = [], []
    for v, row in enumerate(g.next):
        for w in row:
            rows.append(v)
            cols.append(w)
    data = np.full(len(rows), 1.0 / d)
    return sp.csr_matrix((data, (rows, cols)), shape=(g.n, g.n))


def bipartition(g: SchreierGraph) -> tuple[int, ...] | None:
    """A proper 2-coloring over the stored edges, or None if an odd closed
    walk exists.  (For cores the coloring extends to the hanging trees, so
    the answer is about the full graph the core describes.)"""
    color = [-1] * g.n
    color[g.root] = 0
    queue = [g.root]
    while queue:
        v = queue.pop()
        for w in g.next[v]:
            if w is None:
                continue
            if color[w] == -1:
                color[w] = 1 - color[v]
                queue.append(w)
            elif color[w] == color[v]:
                return None
    return tuple(color)


def markov_spectrum(g: SchreierGraph) -> np.ndarray:
    """All eigenvalues of M, ascending.  Dense solve; sizes above
    DENSE_THRESHOLD are refused — use rho0(), which goes iterative."""
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
    bipartiteness.  For ``method="returns-extrapolation"`` the value is a
    certified lower bound for ρ and ``extrapolated`` carries the
    heuristic point estimate (never used in assertions).
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
        if self.method not in ("dense", "iterative", "returns-extrapolation"):
            raise ValueError(f"unknown method {self.method!r}")
        if not -1e-9 <= self.rho0 <= 1 + 1e-9:
            raise GraphInvariantError(
                f"spectral radius estimate {self.rho0} escaped [0, 1]"
            )


# ---------------------------------------------------------------------------
# Iterative extreme-eigenvalue machinery
# ---------------------------------------------------------------------------


class _FillTooDense(Exception):
    pass


def _grounded_lu(M: sp.csr_matrix, n: int, sign: float):
    A = (sp.identity(n, format="csc") - M.multiply(sign)).tocsc()
    lu = spla.splu(A[1:, :][:, 1:].tocsc())
    if lu.L.nnz + lu.U.nnz > _SPLU_FILL_CAP * max(A.nnz, 1):
        raise _FillTooDense
    return lu


def _shift_invert_extreme(
    M: sp.csr_matrix,
    n: int,
    sign: float,
    deflate: Sequence[np.ndarray],
    lu,
    tol: float = 1e-10,
    max_dim: int = 300,
    seed: int = 0,
) -> tuple[float, float]:
    """Eigenvalue of M nearest the ``sign`` end, orthogonally to
    ``deflate``, via Lanczos on the grounded inverse of I − sign·M.
    Returns (eigenvalue, residual norm measured on M itself)."""
    D = np.column_stack(deflate)

    def apply(x: np.ndarray) -> np.ndarray:
        y = np.zeros(n)
        y[1:] = lu.solve(x[1:])
        y -= D @ (D.T @ y)
        return y

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v -= D @ (D.T @ v)
    v /= np.linalg.norm(v)
    V = np.empty((n, max_dim + 1))
    V[:, 0] = v
    H = np.zeros((max_dim + 1, max_dim + 1))
    m = 0
    lam = res = None
    while m < max_dim:
        w = apply(V[:, m])
        h = V[:, : m + 1].T @ w
        w = w - V[:, : m + 1] @ h
        h2 = V[:, : m + 1].T @ w
        w = w - V[:, : m + 1] @ h2
        h += h2
        H[: m + 1, m] = h
        H[m, : m + 1] = h
        m += 1
        nw = float(np.linalg.norm(w))
        exhausted = nw <= 1e-12
        if not exhausted:
            V[:, m] = w / nw
        if exhausted or m % 3 == 0 or m == max_dim:
            Hm = (H[:m, :m] + H[:m, :m].T) / 2
            mu, S = np.linalg.eigh(Hm)
            if abs(mu[-1]) < 1e-13:
                raise ArithmeticError("shift-invert spectrum collapsed")
            y = V[:, :m] @ S[:, -1]
            lam = float(sign * (1.0 - 1.0 / mu[-1]))
            res = float(np.linalg.norm(M @ y - lam * y))
            if res < tol or exhausted:
                return lam, res
    return lam, res


def _restart_lanczos_extremes(
    M: sp.csr_matrix,
    n: int,
    deflate: Sequence[np.ndarray],
    tol: float = _RESIDUAL_TOL,
    maxiter: int = _ITERATION_CAP,
    seed: int = 0,
) -> tuple[float, float, float]:
    """Both extreme eigenvalues of M on the orthogonal complement of
    ``deflate``, by thick-restart Lanczos with full reorthogonalization.
    Returns (λ_min, λ_max, residual bound)."""
    D = np.column_stack(deflate)
    rng = np.random.default_rng(seed)
    m_max = min(n - D.shape[1], 80)
    if m_max < 1:
        return 0.0, 0.0, 0.0
    keep = min(10, max(2, m_max - 2))
    v = rng.standard_normal(n)
    v -= D @ (D.T @ v)
    v /= np.linalg.norm(v)
    V = np.empty((n, m_max + 1))
    V[:, 0] = v
    H = np.zeros((m_max + 1, m_max + 1))
    j = 0
    total = 0
    while total < maxiter:
        while j < m_max:
            w = M @ V[:, j]
            total += 1
            w -= D @ (D.T @ w)
            h = V[:, : j + 1].T @ w
            w -= V[:, : j + 1] @ h
            h2 = V[:, : j + 1].T @ w
            w -= V[:, : j + 1] @ h2
            h += h2
            H[: j + 1, j] = h
            H[j, : j + 1] = h
            beta = float(np.linalg.norm(w))
            if beta < 1e-14:
                theta = np.linalg.eigvalsh(H[: j + 1, : j + 1])
                return float(theta[0]), float(theta[-1]), 0.0
            H[j + 1, j] = beta
            H[j, j + 1] = beta
            V[:, j + 1] = w / beta
            j += 1
        theta, S = np.linalg.eigh(H[:m_max, :m_max])
        beta = H[m_max, m_max - 1]
        res_lo = abs(beta * S[m_max - 1, 0])
        res_hi = abs(beta * S[m_max - 1, -1])
        if max(res_lo, res_hi) < tol:
            return float(theta[0]), float(theta[-1]), float(max(res_lo, res_hi))
        idx = list(range(keep // 2)) + list(range(m_max - (keep - keep // 2), m_max))
        Y = V[:, :m_max] @ S[:, idx]
        V[:, :keep] = Y
        V[:, keep] = V[:, m_max]
        H[:, :] = 0.0
        for i, t in enumerate(theta[idx]):
            H[i, i] = t
            H[keep, i] = beta * S[m_max - 1, idx[i]]
            H[i, keep] = H[keep, i]
        j = keep
    theta = np.linalg.eigvalsh(H[:j, :j])
    return float(theta[0]), float(theta[-1]), float("nan")


def _iterative_extremes(
    M: sp.csr_matrix, n: int, sign_vector: np.ndarray | None
) -> tuple[float, float, float | None, float]:
    """(λ_min, λ_max, λ_min with the bipartite −1 deflated, residual) on
    the zero-sum subspace."""
    ones = np.full(n, 1.0 / math.sqrt(n))
    strict_deflate = [ones] if sign_vector is None else [ones, sign_vector]
    if n <= _SPLU_LIMIT:
        try:
            lu_hi = _grounded_lu(M, n, +1.0)
            hi, res_hi = _shift_invert_extreme(M, n, +1.0, [ones], lu_hi)
            lu_lo = _grounded_lu(M, n, -1.0)
            lo_strict, res_strict = _shift_invert_extreme(
                M, n, -1.0, strict_deflate, lu_lo
            )
            if sign_vector is None:
                lo, res_lo = lo_strict, res_strict
            else:
                lo, res_lo = -1.0, float(np.linalg.norm(M @ sign_vector + sign_vector))
            worst = max(res_lo, res_hi, res_strict)
            # grounding can contaminate the inverse's spectrum on strongly
            # expanding graphs; the residual is measured on M itself, so a
            # bad run is detected and handed to the matvec-only solver
            if worst <= _CONVERGED_BOUND:
                return (
                    lo,
                    hi,
                    lo_strict if sign_vector is not None else None,
                    worst,
                )
        except (_FillTooDense, ArithmeticError):
            pass
    lo, hi, res = _restart_lanczos_extremes(M, n, [ones])
    lo_strict = None
    if sign_vector is not None:
        res_sign = float(np.linalg.norm(M @ sign_vector + sign_vector))
        lo_strict, _, res2 = _restart_lanczos_extremes(M, n, [ones, sign_vector])
        lo = -1.0
        res = max(res, res2, res_sign)
    return lo, hi, lo_strict, res


# ---------------------------------------------------------------------------
# ρ₀ of finite graphs
# ---------------------------------------------------------------------------


def rho0(g: SchreierGraph, method: str | None = None) -> SpectralReport:
    """Norm of M on the zero-sum subspace of a finite connected graph.

    Dense solve up to DENSE_THRESHOLD vertices (or on request), deflated
    Lanczos beyond; bipartite inputs get the −1 eigenvalue certified by
    the 2-coloring sign vector rather than asked of the solver.
    """
    if g.truncated:
        raise ValueError(
            "rho0 is for whole finite graphs; estimate_rho_returns handles truncations"
        )
    n, d = g.n, g.degree
    colors = bipartition(g)
    bip = colors is not None
    if method is None:
        method = "dense" if n <= DENSE_THRESHOLD else "iterative"
    if method not in ("dense", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    if n == 1:
        return SpectralReport(
            d=d, n=1, rho0=0.0, rho0_nonneg=0.0, bipartite=bip, method=method,
            error_bound=0.0, rho0_strict=0.0,
        )
    if method == "dense":
        evs = markov_spectrum(g)
        if evs[-2] > 1 - 1e-12:
            raise GraphInvariantError(
                "eigenvalue 1 is not simple; the graph cannot be connected"
            )
        if bip and abs(evs[0] + 1.0) > 1e-8:
            raise GraphInvariantError("bipartite graph without a −1 eigenvalue")
        value = max(abs(float(evs[0])), abs(float(evs[-2])))
        strict_low = float(evs[1]) if bip else float(evs[0])
        return SpectralReport(
            d=d, n=n, rho0=value, rho0_nonneg=float(evs[-2]), bipartite=bip,
            method="dense", error_bound=1e-12,
            rho0_strict=max(abs(strict_low), abs(float(evs[-2]))),
        )
    M = markov_matrix(g)
    sign_vector = None
    if bip:
        sign_vector = np.where(np.asarray(colors) == 0, 1.0, -1.0) / math.sqrt(n)
    lo, hi, lo_strict, res = _iterative_extremes(M, n, sign_vector)
    value = max(abs(lo), abs(hi))
    strict = max(abs(lo_strict), abs(hi)) if lo_strict is not None else value
    return SpectralReport(
        d=d, n=n, rho0=min(value, 1.0), rho0_nonneg=hi, bipartite=bip,
        method="iterative", error_bound=res, rho0_strict=min(strict, 1.0),
        converged=bool(res <= _CONVERGED_BOUND),
    )


# ---------------------------------------------------------------------------
# ρ of infinite graphs through return counts
# ---------------------------------------------------------------------------


def _return_counts(source: CoreGraph | SchreierGraph, horizon: int) -> tuple[int, ...]:
    if isinstance(source, CoreGraph):
        return core_return_counts(source, horizon)
    table = count_walks(source, source.root, horizon, returns_only=True)
    return tuple(table.return_count(k) for k in range(horizon + 1))


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
    monotonicity is re-checked here in exact integer arithmetic.  A
    3-point Richardson extrapolation in 1/n gives the point estimate,
    reported separately and never asserted against.

    Accepts a core (exact at every horizon) or a truncated graph with
    radius ≥ horizon/2.
    """
    if horizon < 2 or horizon % 2:
        raise ValueError("horizon must be even and at least 2")
    g = source.graph if isinstance(source, CoreGraph) else source
    d = g.degree
    counts = _return_counts(source, horizon)
    evens = [counts[2 * k] for k in range(1, horizon // 2 + 1)]
    for k in range(1, len(evens)):
        if evens[k] ** k < evens[k - 1] ** (k + 1):
            raise InequalityViolation(
                f"return counts lost supermultiplicativity between 2n = {2 * k} "
                f"and {2 * k + 2}"
            )
    rs = [
        math.exp((math.log(c) - 2 * k * math.log(d)) / (2 * k))
        for k, c in enumerate(evens, start=1)
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
    if value - est.rho0 > 0.05 or abs((est.extrapolated or 0.0) - value) > 0.02:
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
    ρ₀ = ρ(T₂) = 1 exactly).
    """

    degree: int
    threshold: float
    ramanujan: bool
    ramanujan_strict: bool
    equality: bool
    report: SpectralReport


def ramanujan_check(g: SchreierGraph, method: str | None = None) -> RamanujanVerdict:
    report = rho0(g, method=method)
    threshold = tree_rho(g.degree)
    slack = report.error_bound + 1e-12
    strict_value = report.rho0_strict if report.rho0_strict is not None else report.rho0
    return RamanujanVerdict(
        degree=g.degree,
        threshold=threshold,
        ramanujan=bool(report.rho0 <= threshold + slack),
        ramanujan_strict=bool(strict_value <= threshold + slack),
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
    if act.degree > DENSE_THRESHOLD:
        raise ValueError("operator norm uses a dense solve; degree too large")
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
