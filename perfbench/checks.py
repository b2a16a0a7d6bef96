"""Correctness checks computed apart from the program.

Reference solves assemble B(y) = B0 + sum_m y_m B_m from the family's own
matrices and call ``scipy.linalg.eigh`` directly; principal angles come from
this module's own QR and SVD.  Closed-form eigenvalues are computed here, not
taken from ``eigcolloc``.  Each check returns one ``Check``; the benchmark
counts every failed check as a failed operation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

# Cluster eigenvalues at the origin against the closed form (relative).
ORIGIN_REL_TOL = 1e-10
# Largest principal angle between the program's reference vectors and the
# reference cluster span at the origin (radians).
REF_SPAN_TOL = 1e-8
# Stored basis at a grid node against the projector image of the reference
# vectors, relative Frobenius norm.
NODE_REL_TOL = 1e-8
# Fitted algebraic rate of the study's error sequence must exceed this.
MIN_RATE = 0.5
# The rate recomputed here must match the rate written to study.json.
RATE_AGREEMENT_TOL = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def laplace_eigenvalues_1d(n_elements: int, count: int) -> list[float]:
    """First ``count`` eigenvalues of the P1 Dirichlet Laplacian on (0, 1)."""
    h = 1.0 / n_elements
    out = []
    for k in range(1, count + 1):
        c = math.cos(k * math.pi * h)
        out.append((6.0 / h**2) * (1.0 - c) / (2.0 + c))
    return out


def tensor_eigenvalues_2d(n_per_side: int, count: int) -> list[float]:
    """First ``count`` eigenvalues of the Q1 Laplacian: sorted sums of 1D values."""
    oned = laplace_eigenvalues_1d(n_per_side, n_per_side - 1)
    return sorted(a + b for a in oned for b in oned)[:count]


def assemble(family, y) -> np.ndarray:
    B = family.B0.copy()
    for ym, Bm in zip(y, family.B_terms):
        B += float(ym) * Bm
    return B


def reference_cluster(family, J, y) -> tuple[np.ndarray, np.ndarray]:
    """Cluster eigenvalues and mass-orthonormal eigenvectors of B(y)."""
    idx = [j - 1 for j in J]
    vals, vecs = scipy.linalg.eigh(
        assemble(family, y), family.mass, subset_by_index=[0, max(J) - 1]
    )
    return vals[idx], vecs[:, idx]


def largest_angle(X: np.ndarray, Y: np.ndarray, M: np.ndarray) -> float:
    """Largest principal angle between span(X) and span(Y), M inner product."""
    LT = np.linalg.cholesky(M).T
    QX = np.linalg.qr(LT @ X)[0]
    QY = np.linalg.qr(LT @ Y)[0]
    sines = np.linalg.svd(QY - QX @ (QX.T @ QY), compute_uv=False)
    return float(math.asin(min(float(sines.max()), 1.0)))


def check_origin_values(name: str, values, expected) -> Check:
    values = np.asarray(values, dtype=float)
    expected = np.asarray(expected, dtype=float)
    rel = float(np.max(np.abs(values - expected) / np.abs(expected)))
    return Check(name, rel <= ORIGIN_REL_TOL, f"max relative error {rel:.3e}")


def check_reference_span(name: str, family, J, ref_vectors) -> Check:
    _, U = reference_cluster(family, J, [])
    angle = largest_angle(np.asarray(ref_vectors), U, family.mass)
    return Check(name, angle <= REF_SPAN_TOL, f"angle {angle:.3e}")


def check_node(name: str, family, J, ref_vectors, y, value) -> Check:
    """At a grid node the stored basis equals P_J(y) applied to the references."""
    _, U = reference_cluster(family, J, y)
    image = U @ (U.T @ (family.mass @ ref_vectors))
    rel = float(np.linalg.norm(value - image) / np.linalg.norm(image))
    return Check(name, rel <= NODE_REL_TOL, f"relative error {rel:.3e}")


def check_off_grid(name: str, family, J, y, value, tol: float) -> Check:
    _, U = reference_cluster(family, J, y)
    angle = largest_angle(np.asarray(value), U, family.mass)
    return Check(name, angle <= tol, f"angle {angle:.3e} (tolerance {tol:g})")


def fitted_rate(card_A, errors) -> float:
    """Negated least-squares slope of log(error) against log(#A)."""
    x = np.log(np.asarray(card_A, dtype=float))
    z = np.log(np.asarray(errors, dtype=float))
    x = x - x.mean()
    return float(-(x @ (z - z.mean())) / (x @ x))


def check_error_sequence(card_A, errors, reported_rate) -> list[Check]:
    """Errors decrease strictly over the budgets and converge at a rate."""
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    out = [Check("errors-decrease", decreasing, f"errors {list(errors)}")]
    rate = fitted_rate(card_A, errors) if all(e > 0.0 for e in errors) else math.nan
    out.append(Check("rate", rate > MIN_RATE, f"fitted rate {rate:.4f}"))
    agree = reported_rate is not None and abs(rate - reported_rate) <= (
        RATE_AGREEMENT_TOL * max(1.0, abs(rate))
    )
    out.append(
        Check("rate-reported", agree, f"study.json r_hat {reported_rate!r}")
    )
    return out


def check_bit_identical(name: str, a, b) -> Check:
    same = a.shape == b.shape and bool(np.array_equal(a, b))
    return Check(name, same, "bit-identical" if same else "arrays differ")
